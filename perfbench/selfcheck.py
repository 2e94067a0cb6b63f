"""Quick self-check of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload, untraced and traced, it asserts that the run is correct
and emits exactly the metrics BENCHMARK.json names, each with its unit.  It
then corrupts the pinned expectations each tiny run checks and asserts that
the digest gate marks the run incorrect, and that a traced name which no
longer resolves is reported as missing instead of raising.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import run
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def tiny(workload: str, trace: int, expected: dict) -> tuple[dict, str]:
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                           "--trace", str(trace), "--tiny"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(args, expected)
    return result, out.getvalue()


def corrupt(expected: dict, workload: str) -> dict:
    """Wrong expectations for everything the tiny run of workload checks."""
    bad = copy.deepcopy(expected)
    if workload == "sweep":
        for config in bad["sweep"]:
            config["sha256"] = "0" * 64
    elif workload == "audit":
        for config in bad["audit"]:
            config["checks"] = config["checks"][::-1]
    else:
        for system in bad[workload]["systems"]:
            for entry in system["pool"]:
                entry[-1] = "0" * 16
    return bad


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run.load_adlv()
    expected = run.load_expected()
    for workload in sorted(WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, text = tiny(workload, trace, expected)
            assert result["correct"], f"{workload} trace={trace} failed:\n{text}"
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (f"{workload} trace={trace}: missing "
                                 f"{sorted(set(want) - set(got))}, extra "
                                 f"{sorted(set(got) - set(want))}, units "
                                 f"{ {n: (got[n], want[n]) for n in got if got[n] != want.get(n)} }")
        result, text = tiny(workload, 0, corrupt(expected, workload))
        assert not result["correct"] and result["failed"] > 0, f"{workload}: gate did not trip"
        assert "digest_mismatch 0" not in text, f"{workload}: not counted as digest mismatch"
        print(f"ok {workload}")

    spans.LAYERS["selfcheck.moved"] = ("adlv.cli", "no_such_function", "")
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        del spans.LAYERS["selfcheck.moved"]
    assert tracer.missing == ["selfcheck.moved"], tracer.missing
    print("ok missing layer reported")
    return 0


if __name__ == "__main__":
    sys.exit(main())
