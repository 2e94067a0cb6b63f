"""The adlv benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 60 --trace 0

Runs one workload (sweep, long, wide or audit; see workloads.py and
README.md) from the root of a source checkout, against ``src/adlv``.  With
``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it runs cold set-up plus one pass untraced and traced in
turn, after a discarded warm-up round, and reports per-layer metrics.
Every output is checked against ``expected.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 when every output was
correct, 1 when one was not, 2 when adlv cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import spans
from workloads import CATEGORIES, WORKLOADS, classify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
TRACE_ROUNDS = 3  # untraced and traced rounds of a traced run, in turn
LAYER_SHARE_MIN = 0.90  # named layers must account for this share of the traced wall
RULES = ("kottwitz-mismatch", "shortcut-firstlemma", "sigma-support-criterion",
         "alcove-oracle")


class LoadError(Exception):
    pass


def load_adlv() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import adlv
        import adlv.cli  # imports every layer, so no timed region pays for an import
    except ImportError as exc:
        raise LoadError(f"cannot import adlv from {src}: {exc}") from exc
    if Path(adlv.__file__).resolve().parent != (src / "adlv").resolve():
        raise LoadError(f"adlv was loaded from {adlv.__file__}, not from {src}")


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


# -- running passes ------------------------------------------------------------


class Tally:
    """Attempted and failed units, failures by category."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add(self, workload, records) -> None:
        for item, _, output, error in records:
            units = workload.units(item)
            self.attempted += units
            if error is not None:
                self.failures[classify(error)] += units
                continue
            try:
                self.failures.update(workload.verify(item, output))
            except Exception:  # a malformed output must not stop the run
                traceback.print_exc()
                self.failures["exception"] += units


def run_pass(workload, tracer=None):
    """Run every item once, closed loop; returns (wall seconds, records)."""
    records = []
    start = perf_counter()
    for item in workload.items:
        t0 = perf_counter()
        try:
            if tracer is None:
                output = workload.execute(item)
            else:
                output = tracer.span("bench.op", workload.execute, item)
            error = None
        except Exception as exc:  # one failed operation never aborts the workload
            print(f"{workload.name}: operation {item!r:.80} failed", file=sys.stderr)
            traceback.print_exc()
            output, error = None, exc
        records.append((item, perf_counter() - t0, output, error))
    return perf_counter() - start, records


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- end-to-end run ------------------------------------------------------------------


def end_to_end(workload, args, tally: Tally) -> dict:
    """Closed loop over whole passes for --seconds (at least MIN_PASSES).

    Contention from other tenants only ever adds time, so each operation's
    latency is its minimum over the passes; p50/p90 are taken across the
    operations of a pass, wall_s is a pass with every operation at that
    minimum and ops_per_s is a pass's units over wall_s.  Every pass starts
    with a cold set-up, and setup_s is the median of these, so that set-up
    is sampled across the whole run.
    """
    setups, best, rss = [], {}, None
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        setups.append(timed(workload.setup))
        _, records = run_pass(workload)
        tally.add(workload, records)
        for index, (_, seconds, output, _) in enumerate(records):
            for key, latency in workload.latencies(index, seconds, output):
                best[key] = min(best.get(key, latency), latency)
        if rss is None:
            rss = peak_rss_mb()  # one pass: what one CLI invocation holds
        now = perf_counter()
        if len(setups) >= MIN_PASSES and now - start + (now - pass_start) > args.seconds:
            break
    latencies = sorted(best.values())
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
           if len(latencies) > 1 else latencies[0])
    units = sum(workload.units(item) for item in workload.items)
    print(f"# {len(setups)} passes of {len(latencies)} timed operations, "
          f"set-up from {min(setups):.4f} to {max(setups):.4f} s")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (units / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "wall_s": (sum(latencies), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_ratio": (1 - tally.failed / max(1, tally.attempted), "ratio"),
    }


# -- traced run ------------------------------------------------------------------------


def _observers() -> dict:
    def sigma_arg(args, kwargs):
        return args[2] if len(args) > 2 else kwargs.get("sigma")

    return {
        "iwahori.affine_sigma_support": lambda args, kwargs, result: args[0],
        "alcove.AlcoveProfile.w_x": lambda args, kwargs, result: len(result),
        "criterion.decide_nonempty": lambda args, kwargs, result: result.rule,
        "criterion.oracle_nonempty": lambda args, kwargs, result: (
            args[0].system, sigma_arg(args, kwargs), result),
    }


def _pairs_scanned(oracle_calls) -> int:
    """(J, w) pairs the oracle compared: subsets outer, W0 in sort order inner."""
    from adlv import criterion, weyl

    total, orders = 0, {}
    for system, sigma, verdict in oracle_calls:
        witnesses = verdict.witnesses
        if "pairs_scanned" in witnesses:
            total += witnesses["pairs_scanned"]
            continue
        if system not in orders:
            ordered = sorted(weyl.enumerate_w0(system), key=lambda u: u.sort_key())
            orders[system] = {w: i for i, w in enumerate(ordered)}
        subsets = criterion.sigma_stable_subsets(system, sigma, True)
        total += (subsets.index(witnesses["j"]) * len(orders[system])
                  + orders[system][witnesses["w"]] + 1)
    return total


def round_wall(workload, tracer=None) -> tuple[float, int, list]:
    """Cold set-up plus one pass; returns its wall seconds, units and records."""
    start = perf_counter()
    units = workload.setup() if tracer is None else tracer.span("bench.setup", workload.setup)
    _, records = run_pass(workload, tracer)
    wall = perf_counter() - start
    return wall, units + sum(workload.units(item) for item, _, _, _ in records), records


def traced(workload, tally: Tally, expected: dict) -> tuple[dict, list, bool]:
    """A discarded warm-up round, then TRACE_ROUNDS untraced and traced rounds
    in turn.  Per-layer figures come from the first traced round; the
    overhead compares the fastest traced round with the fastest untraced one,
    so neither side pays for a warm-up or a slow moment of the host alone.
    Outputs are checked with the tracer removed, so checking is not traced."""
    tally.add(workload, round_wall(workload)[2])
    plain, walls, tracers = [], [], []
    for _ in range(TRACE_ROUNDS):
        wall, _, records = round_wall(workload)
        plain.append(wall)
        tally.add(workload, records)
        tracer = spans.Tracer()
        tracer.install(_observers())
        try:
            wall, units, records = round_wall(workload, tracer)
        finally:
            tracer.uninstall()
        tally.add(workload, records)
        walls.append(wall)
        tracers.append((tracer, wall, units))
    tracer, wall, units = tracers[0]

    stats, observed, missing = tracer.stats, tracer.observed, list(tracer.missing)
    metrics = {}
    for prefix in spans.LAYERS:
        calls, _, self_s = stats.get(prefix, (0, 0.0, 0.0))
        if prefix != "cli.enumerate_rows":
            metrics[f"{prefix}.calls"] = (calls, "count")
        metrics[f"{prefix}.self_s"] = (self_s, "s")

    support_calls, _, support_self = stats.get("iwahori.affine_sigma_support", (0, 0.0, 0.0))
    lengths = sum(x.length for x in observed.get("iwahori.affine_sigma_support", []))
    metrics["iwahori.affine_sigma_support.calls_per_op"] = (support_calls / units, "count")
    metrics["iwahori.affine_sigma_support.us_per_length"] = (
        support_self * 1e6 / lengths if lengths else 0.0, "us")
    sizes = observed.get("alcove.AlcoveProfile.w_x", [])
    metrics["alcove.w_x.size_mean"] = (sum(sizes) / len(sizes) if sizes else 0.0, "count")
    oracle_calls = observed.get("criterion.oracle_nonempty", [])
    try:
        pairs = _pairs_scanned(oracle_calls)
    except (AttributeError, KeyError, ValueError):
        pairs = 0
        missing.append("criterion.oracle.pairs_scanned")
    metrics["criterion.oracle.pairs_scanned"] = (pairs, "count")
    rules = Counter(observed.get("criterion.decide_nonempty", []))
    rules.update(verdict.rule for _, _, verdict in oracle_calls)
    for rule in RULES:
        metrics[f"criterion.rule.{rule}"] = (rules[rule], "count")

    totals: Counter = Counter()
    for name, ids in observed.items():
        if name.startswith("audit.") and ids:
            totals[ids[0]] += stats[name][1]
    for check_id in audit_check_ids(expected):
        metrics[f"audit.{check_id}.total_s"] = (totals[check_id], "s")

    layer_self = sum(v[2] for k, v in stats.items() if not k.startswith("bench."))
    share = layer_self / wall
    metrics["trace.overhead_ratio"] = (min(walls) / min(plain), "ratio")
    metrics["trace.layer_share"] = (share, "ratio")
    print(f"# traced walls {[round(w, 3) for w in walls]} s, untraced "
          f"{[round(w, 3) for w in plain]} s, "
          f"{units} units; self time outside named layers "
          f"{sum(v[2] for k, v in stats.items() if k.startswith('bench.')):.3f} s")
    hygiene = LAYER_SHARE_MIN <= share <= 1.0 + 1e-9
    if not hygiene:
        print(f"error: layer self times cover {share:.3f} of the traced wall, "
              f"outside [{LAYER_SHARE_MIN}, 1]", file=sys.stderr)
    return metrics, missing, hygiene


def audit_check_ids(expected: dict) -> list[str]:
    ids: dict[str, None] = {}
    for config in expected["audit"]:
        ids.update(dict.fromkeys(config["checks"]))
    return list(ids)


# -- entry point ------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the smallest inputs of each workload (harness self-check)")
    return parser.parse_args(argv)


def run(args, expected: dict | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    expected = expected or load_expected()
    workload = WORKLOADS[args.workload](expected, args.seed, tiny=args.tiny)
    tally = Tally()
    missing: list = []
    hygiene = True
    if args.trace:
        metrics, missing, hygiene = traced(workload, tally, expected)
    else:
        metrics = end_to_end(workload, args, tally)
    for name, (value, unit) in metrics.items():
        print(f"{name:52} {value:<14.6g} {unit}")
    if missing:
        print(f"# missing layers (reported as 0): {', '.join(missing)}")
    print(f"# error_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(1, tally.attempted):.6g}; "
          + ", ".join(f"{c} {tally.failures[c]}" for c in CATEGORIES))
    return {
        "correct": tally.failed == 0 and hygiene,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_adlv()
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
