"""Benchmark for confab: cold-process time to table, end to end and by layer.

    python3 perfbench/run.py --workload {ladder,products,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is taken from ``src/`` next
to this directory.  Closed loop, one client: one child process at a time,
each a fresh interpreter, the next started when the previous one has exited.
The seed only shuffles the order of tags within a pass and of commands
within the CLI mix; the children receive only tags or argv.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, writing every
span to ``perfbench/out/`` as JSON lines when the run ends.  Every output is
checked against ``golden.json`` (captured at the seed commit) and against
independent routes; the last stdout line is the result object.  See
README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

# single-factor Weyl groups up to rank 5; U6, Sp4 and U8 are out of reach at
# the seed commit (see README.md)
LADDER = (
    "S1", "U2", "U3", "U4", "U5", "SU2", "SU3", "SU4", "SU5", "Sp1", "Sp2", "Sp3",
)
# products of small factors, every one with a tensor catalog
PRODUCTS = (
    "U2xU2", "S1xU3", "U2xU2xU2", "S1xSU2xSp1", "U2xSp2",
    "SU3xSU3", "U3xSU3", "SU3xSp2", "Sp2xSp2", "U2xU2xSp2",
)


def cli_mix() -> list[list[str]]:
    """The user mix: 24 table/verify invocations and 7 light commands."""
    mix = []
    for command in ("table1", "table2", "conf3-u2", "verify"):
        for fmt in ("md", "json", "csv"):
            for convention in ("derived", "paper"):
                mix.append(
                    [command, "--format", fmt, "--convention", convention]
                )
    for group in ("u2", "s1xsu2"):
        mix.append(["ring", "--group", group])
        mix.append(["ring", "--group", group, "--unordered"])
    mix.append(["circle", "--k", "8"])
    mix.append(["su2", "--k", "9"])
    mix.append(["bound", "--family", "u", "--degree", "2", "--k", "9"])
    return mix


WORKLOADS = {"ladder": LADDER, "products": PRODUCTS, "cli": None}

# run-wide guard: a run must end within 180 s whatever its children do
HARD_LIMIT_S = 170.0
SETUP_PROBES = 3  # per pass
INTERPRETER_PROBES = 7
# the `confab` console script, as pyproject.toml declares it
CLI_ENTRY = "import sys; from confab.cli import main; sys.exit(main())"

SPAN_METRICS = (
    "groups.decompose",
    "weyl.parse_tag",
    "weyl.datum",
    "weyl.flag",
    "weyl.torus",
    "weyl.kunneth",
    "weyl.invariants",
    "torusconf.conf2",
)
COUNT_METRICS = (
    "exact.qmatrix_mul_calls",
    "exact.char_poly_calls",
    "groups.order_total",
    "groups.class_total",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no confab sources to benchmark."""


def op_key(op) -> str:
    return op if isinstance(op, str) else " ".join(op)


def pass_plan(workload: str, rng: random.Random) -> list:
    ops = list(WORKLOADS[workload] or cli_mix())
    rng.shuffle(ops)
    return ops


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def median(values) -> float:
    """The median; 0 when every operation failed (the run is then incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Interpolated quantile, as statistics.quantiles(method='inclusive')."""
    ordered = sorted(values)
    if len(ordered) <= 1:
        return ordered[0] if ordered else 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Runner:
    """Starts one child at a time and records what failed."""

    def __init__(self, seconds: float, golden: dict):
        self.begun = time.perf_counter()
        self.seconds = seconds
        self.deadline = self.begun + seconds
        self.golden = golden
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []

    def remaining_hard(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.begun))

    def expired(self) -> bool:
        return time.perf_counter() - self.begun > HARD_LIMIT_S

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def start_clock(self) -> None:
        """Start the measured --seconds, after the probes."""
        self.deadline = time.perf_counter() + self.seconds

    def more(self, durations: list[float]) -> bool:
        """Whether another pass fits: always one, then while the median fits."""
        if self.expired():
            return False
        if not durations:
            return True
        return time.perf_counter() + statistics.median(durations) <= self.deadline

    # -- probes --------------------------------------------------------------

    def time_import(self) -> float | None:
        """Seconds from spawn until `import confab.cli` has returned."""
        self.attempted += 1
        code = "import confab.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            env=self.env,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self.remaining_hard())
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=self.remaining_hard())
        except subprocess.TimeoutExpired:
            line = b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != b"ready\n" or proc.returncode != 0:
            self.fail("setup: `import confab.cli` failed")
            return None
        return elapsed

    def time_bare_interpreter(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=self.env)
        return time.perf_counter() - start

    # -- children ------------------------------------------------------------

    def spawn(self, argv: list[str]):
        """(wall seconds, exit code, stdout bytes), or None on a timeout."""
        start = time.perf_counter()
        try:
            done = subprocess.run(
                argv,
                capture_output=True,
                env=self.env,
                timeout=self.remaining_hard(),
            )
        except subprocess.TimeoutExpired:
            return None
        return time.perf_counter() - start, done.returncode, done.stdout

    def child(self, job: dict):
        """(wall seconds, result) of one child.py job; None when it failed."""
        name = f"{job['kind']} {op_key(job.get('tag') or job['argv'])}"
        got = self.spawn([sys.executable, str(CHILD), json.dumps(job)])
        if got is None:
            self.fail(f"{name}: timeout")
            return None
        wall, code, stdout = got
        try:
            result = json.loads(stdout.decode().splitlines()[-1])
        except (ValueError, IndexError):
            result = None
        if code != 0 or not isinstance(result, dict):
            self.fail(f"{name}: child exited {code} without a result")
            return None
        return wall, result

    def cli_process(self, argv: list[str]):
        """(wall seconds, code, stdout) of the `confab` process a user runs."""
        got = self.spawn([sys.executable, "-c", CLI_ENTRY, *argv])
        if got is None:
            self.fail(f"cli {op_key(argv)}: timeout")
        return got

    # -- checks --------------------------------------------------------------

    def check_table(self, tag: str, result: dict) -> bool:
        expected = self.golden["tables"][tag]
        dims = list(result["dims"])
        problems = []
        if dims != expected:
            problems.append(f"dims {dims} != golden {expected}")
        if result["has_catalog"] and list(result["shortcut"]) != dims:
            problems.append(f"shortcut {result['shortcut']} != table {dims}")
        if result["h1"] is not None and (len(dims) < 2 or dims[1] != result["h1"]):
            problems.append(f"H1 {dims[1:2]} != first_cohomology_dim {result['h1']}")
        if problems:
            self.fail(f"table {tag}: " + "; ".join(problems))
        return not problems

    def check_cli(self, argv: list[str], code: int, stdout: bytes) -> bool:
        key = op_key(argv)
        expected = self.golden["cli"][key]
        if argv[0] == "verify":
            ok = code == 0 and verify_fail_count(argv, stdout) == 0
        else:
            ok = code == expected["code"] and stdout == expected["stdout"].encode()
        if not ok:
            self.fail(f"cli {key}: exit {code} or stdout differs from golden")
        return ok

    # -- one operation ---------------------------------------------------------

    def table_op(self, tag: str, traced: bool):
        """(latency s, result) of one checked table; None when it failed."""
        self.attempted += 1
        if self.expired():
            self.fail(f"table {tag}: not run, hard time limit reached")
            return None
        got = self.child({"kind": "table", "tag": tag, "traced": traced})
        if got is None or not self.check_table(tag, got[1]):
            return None
        return got

    def cli_op(self, argv: list[str], in_process: bool, traced: bool = False):
        """(latency s, result) of one checked invocation; None when it failed.

        ``in_process`` runs ``main(argv)`` inside child.py, timing main alone;
        otherwise the latency is the whole `confab` process, start to exit.
        """
        self.attempted += 1
        if self.expired():
            self.fail(f"cli {op_key(argv)}: not run, hard time limit reached")
            return None
        if in_process:
            got = self.child({"kind": "cli", "argv": argv, "traced": traced})
            if got is None:
                return None
            wall, result = got
            code, stdout = result["code"], result["stdout"].encode()
        else:
            got = self.cli_process(argv)
            if got is None:
                return None
            wall, code, stdout = got
            result = {"solve_s": wall}
        if not self.check_cli(argv, code, stdout):
            return None
        return wall, result


def verify_fail_count(argv: list[str], stdout: bytes) -> int:
    """FAIL lines in a verify report, read from any of the three formats.

    Bytes are not compared: the verify wording is expected to change.  An
    empty or unreadable report counts as one failure.
    """
    text = stdout.decode(errors="replace")
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "md"
    if fmt == "json":
        try:
            checks = json.loads(text)["checks"]
        except (ValueError, KeyError, TypeError):
            return 1
        statuses = [check.get("status") for check in checks]
    else:
        lines = text.splitlines()
        if fmt == "csv":
            lines = lines[1:]
        statuses = [line.split(",", 1)[0].split(" ", 1)[0] for line in lines]
    if "PASS" not in statuses:
        return 1
    return statuses.count("FAIL")


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_end_to_end(workload: str, seed: int, seconds: float, golden: dict):
    runner = Runner(seconds, golden)
    rng = random.Random(seed)
    runner.time_import()  # fills the bytecode cache; not measured
    runner.start_clock()

    setups: list[float] = []
    passes: list[float] = []
    latencies: dict[str, list[float]] = {}
    orders: list[list[str]] = []
    while runner.more(passes):
        # set-up probes are spread over the run, like the operations, so
        # that both see the same host
        for _ in range(SETUP_PROBES):
            setup = runner.time_import()
            if setup is not None:
                setups.append(setup)
        plan = pass_plan(workload, rng)
        orders.append([op_key(op) for op in plan])
        solve = 0.0
        for op in plan:
            if workload == "cli":
                got = runner.cli_op(op, in_process=False)
            else:
                got = runner.table_op(op, traced=False)
            if got is None:
                continue
            wall, result = got
            solve += result["solve_s"]
            latencies.setdefault(op_key(op), []).append(wall)
        passes.append(solve)

    # per-operation median first, so the mix is weighed the same whatever
    # the number of passes; then quantiles over the operations of the mix
    per_op_ms = [statistics.median(v) * 1000 for v in latencies.values()]
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (median(setups), "s"),
        "solve_s": (median(passes), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "latency_p50_ms": (quantile(per_op_ms, 0.5), "ms"),
        "latency_p90_ms": (quantile(per_op_ms, 0.9), "ms"),
    }
    detail = {
        "pass_solve_s": passes,
        "samples": sum(len(v) for v in latencies.values()),
        "setup_probes": len(setups),
        "orders": orders,
    }
    if workload == "cli":
        verify = [
            t for key, ts in latencies.items() if key.startswith("verify") for t in ts
        ]
        detail["verify_ms"] = median(verify) * 1000
    return runner, metrics, detail


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_totals(results: list[dict]) -> dict[str, float]:
    """Per-pass layer figures from the traced results of one pass."""
    totals: dict[str, float] = {}
    for result in results:
        spans = result["spans"]
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            totals[name + "_self"] = totals.get(name + "_self", 0.0) + own
            totals[name] = totals.get(name, 0.0) + (end - start)
            if parent is None:
                totals["stages"] = totals.get("stages", 0.0) + (end - start) - own
        for name, count in result["counts"].items():
            totals[name] = totals.get(name, 0) + count
    return totals


def run_traced(workload: str, seed: int, seconds: float, golden: dict):
    runner = Runner(seconds, golden)
    rng = random.Random(seed)
    runner.time_import()  # fills the bytecode cache; not measured
    interpreter = [runner.time_bare_interpreter() for _ in range(INTERPRETER_PROBES)]
    runner.start_clock()

    untraced: list[float] = []
    traced: list[dict] = []
    traced_solve: list[float] = []
    imports: list[float] = []
    per_op: dict[str, list[float]] = {}
    spans_out: list[dict] = []
    pair_s: list[float] = []
    while runner.more(pair_s):
        pair_start = time.perf_counter()
        plan = pass_plan(workload, rng)
        for traced_pass in (False, True):
            results = []
            for op in plan:
                if workload == "cli":
                    got = runner.cli_op(op, in_process=True, traced=traced_pass)
                else:
                    got = runner.table_op(op, traced=traced_pass)
                if got is None:
                    continue
                result = got[1]
                result["key"] = op_key(op)
                imports.append(result["import_ms"])
                results.append(result)
            solve = sum(r["solve_s"] for r in results)
            if not traced_pass:
                untraced.append(solve)
                continue
            traced_solve.append(solve)
            traced.append(layer_totals(results))
            for index, result in enumerate(results):
                trace_id = f"{len(traced) - 1}.{index}"
                for span_id, (name, start, end, parent) in enumerate(result["spans"]):
                    spans_out.append(
                        {
                            "trace": trace_id,
                            "op": result["key"],
                            "span": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                per_op.setdefault(result["key"], []).append(
                    layer_totals([result]).get("tables.table", 0.0)
                )
        pair_s.append(time.perf_counter() - pair_start)

    # counts must repeat exactly from one traced pass to the next
    for later in traced[1:]:
        runner.attempted += 1
        if any(later.get(name) != traced[0].get(name) for name in COUNT_METRICS):
            runner.fail("counts differ between traced passes of one run")

    def median_of(name: str) -> float:
        return median(t.get(name, 0.0) for t in traced)

    # counts repeat exactly (checked above), so the first traced pass gives them
    first = traced[0] if traced else {}
    metrics = {name: (first.get(name, 0), "count") for name in COUNT_METRICS}
    for name in SPAN_METRICS:
        metrics[name + "_s"] = (median_of(name + "_self"), "s")
    metrics["tables.table_s"] = (median_of("tables.table"), "s")
    metrics["tables.shortcut_s"] = (median_of("tables.shortcut"), "s")
    metrics["cli.interpreter_ms"] = (median(interpreter) * 1000, "ms")
    metrics["cli.import_ms"] = (median(imports), "ms")
    untraced_solve = median(untraced)
    share = median_of("stages") / untraced_solve if untraced_solve else 0.0
    metrics["trace.stage_share"] = (share, "ratio")
    metrics["trace.overhead_s"] = (median(traced_solve) - untraced_solve, "s")
    # layers that only some workloads exercise stay out of the result line,
    # which must carry the same metrics on every workload
    layers = {
        "torusconf.conf3_s": median_of("torusconf.conf3_self"),
        "rings.series_s": median_of("rings.series_self"),
        "tables.verify_all_s": median_of("tables.verify_all"),
        "cli.main_ms": median_of("cli.main") * 1000,
    }
    if workload != "cli":
        layers.update(
            {f"tables.table_s.{key}": statistics.median(v) for key, v in sorted(per_op.items())}
        )
    detail = {
        "passes": len(traced),
        "untraced_solve_s": untraced_solve,
        "workload_layers": {name: value for name, value in layers.items() if value},
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(spans_path, "w") as sink:
        for span in spans_out:
            sink.write(json.dumps(span) + "\n")
    detail["spans"] = str(spans_path.relative_to(ROOT))
    return runner, metrics, detail


def load_golden() -> dict:
    if not (SRC / "confab" / "__init__.py").is_file():
        raise ProgramMissing(f"no confab sources under {SRC}")
    with open(GOLDEN) as source:
        return json.load(source)


def run(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    measure = run_traced if trace else run_end_to_end
    runner, metrics, detail = measure(workload, seed, seconds, golden)
    detail["failures"] = runner.failures[:20]
    return {
        "detail": detail,
        "result": {
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        golden = load_golden()
    except (ProgramMissing, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), golden)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
