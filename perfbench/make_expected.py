"""Regenerate perfbench/expected.json from the current adlv sources.

    python3 perfbench/make_expected.py

The file pins the outputs the benchmark checks: the sha256 of each sweep
CSV, the check ids of each crosscheck, and the element pools of the long and
wide workloads with the digest of each element's verdict, plus one warm-up
element per system for their set-up.  The pools are drawn once from
POOL_SEED; a benchmark run's --seed selects from them (long) or orders them
(wide).  Run this only when adlv's output contract changes on purpose.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

POOL_SEED = 2302
# Bounds keep each command near 0.15-0.3 s and a pass near 1.2 s, so a run
# repeats every command often enough for its minimum latency to be steady on
# a shared machine.
SWEEP = [("A2", "id", 5), ("G2", "id", 8), ("A3", "id", 2), ("A3", "(1 3)", 2),
         ("B3", "id", 3), ("D4", "id", 1)]
AUDIT = [("A2", "id", 3), ("G2", "id", 4)]  # checks under ~0.3 s but the fixed defect one
LONG_SYSTEMS = [("A2", "id"), ("G2", "id"), ("B3", "id"), ("A3", "(1 3)"), ("D4", "id")]
LONG_LENGTHS = (5, 1000)  # target lengths, log-spaced; candidates within 4%
LONG_STRATA = 8
LONG_PER_STRATUM = 4
LONG_PICKS = 2  # candidates per stratum a run uses
WIDE_SYSTEMS = [("F4", "id")]
WIDE_POOL = 6  # every pass runs the whole pool
WIDE_BOX = 3  # translation coordinates in [-3, 3]: the W0 scan dominates, not length


def element_text(translation, w) -> str:
    from adlv import notation

    parts = []
    if any(translation):
        parts.append("t[" + ",".join(map(str, translation)) + "]")
    if not w.is_identity():
        parts.append(notation.format_finite(w))
    return " ".join(parts) or "e"


def random_element(rng: random.Random, context, box: float, w0) -> str:
    system = context[0]
    size = max(1, round(box))
    translation = [rng.randint(-size, size) for _ in range(system.rank)]
    return element_text(translation, rng.choice(w0))


def long_pool(rng: random.Random, name: str, sigma: str) -> list:
    from adlv import notation, weyl

    context = workloads.make_context(name, sigma)
    w0 = list(weyl.enumerate_w0(context[0]))
    low, high = LONG_LENGTHS
    targets = [low * (high / low) ** (k / (LONG_STRATA - 1)) for k in range(LONG_STRATA)]
    strata: dict[int, list] = {k: [] for k in range(LONG_STRATA)}
    for _ in range(10 ** 6):
        if all(len(v) == LONG_PER_STRATUM for v in strata.values()):
            break
        box = math.exp(rng.uniform(0.0, math.log(2 * high)))
        text = random_element(rng, context, box, w0)
        length = notation.parse_affine(context[0], text).length
        for stratum, target in enumerate(targets):
            near = abs(length - target) <= max(1.0, 0.04 * target)
            if near and len(strata[stratum]) < LONG_PER_STRATUM and text not in strata[stratum]:
                strata[stratum].append(text)
    else:
        raise SystemExit(f"could not fill the length strata of {name}")
    pool = []
    for stratum, texts in strata.items():
        for text in texts:
            document, _ = workloads.check(context, text)
            pool.append([stratum, text, workloads.verdict_digest(document)])
    return pool


def wide_pool(rng: random.Random, name: str, sigma: str) -> list:
    """Equal numbers of nonempty and empty verdicts: a nonempty one makes the
    oracle compare every (J, w) pair, an empty one stops at its witness."""
    from adlv import weyl

    context = workloads.make_context(name, sigma)
    w0 = list(weyl.enumerate_w0(context[0]))
    pool, seen = [], set()
    quota = {True: WIDE_POOL // 2, False: WIDE_POOL // 2}
    while any(quota.values()):
        text = random_element(rng, context, rng.uniform(1, WIDE_BOX), w0)
        if text in seen:
            continue
        seen.add(text)
        output = workloads.confirmed_check(context, text)
        verdict, oracle = output[1][3], output[2]
        if oracle is None or not quota[verdict.nonempty]:
            continue  # keep the oracle on every operation
        if oracle.nonempty != verdict.nonempty:
            raise SystemExit(f"criterion and oracle disagree on {name} {text}")
        quota[verdict.nonempty] -= 1
        pool.append([verdict.nonempty, text, workloads.confirmed_digest(context, output)])
    return pool


def warmup_element(rng: random.Random, name: str, sigma: str, run, pool: list) -> str:
    """A short element outside the pool that takes the criterion path (and,
    for wide, the oracle), so set-up fills the per-system caches."""
    from adlv import weyl

    context = workloads.make_context(name, sigma)
    w0 = list(weyl.enumerate_w0(context[0]))
    taken = {entry[-2] for entry in pool}
    while True:
        text = random_element(rng, context, 2, w0)
        if text not in taken and run(context, text)[1][3].rule == workloads.RULE_CRITERION:
            return text


def main() -> None:
    rng = random.Random(POOL_SEED)
    expected: dict = {"pool_seed": POOL_SEED, "sweep": [], "audit": []}
    for name, sigma, bound in SWEEP:
        config = {"system": name, "sigma": sigma, "length_bound": bound}
        code, text = workloads.run_cli(workloads.Sweep._argv(config, bound))
        if code != 0 or workloads.csv_disagreements(text):
            raise SystemExit(f"enumerate {config} failed")
        config.update(rows=text.count("\n") - 1,
                      sha256=hashlib.sha256(text.encode()).hexdigest())
        expected["sweep"].append(config)
    for name, sigma, bound in AUDIT:
        config = {"system": name, "sigma": sigma, "length_bound": bound}
        code, text = workloads.run_cli(
            ["crosscheck", "--system", name, "--sigma", sigma, "--length-bound", str(bound)])
        document = json.loads(text)
        if code != 0 or document["failures"]:
            raise SystemExit(f"crosscheck {config} failed")
        config["checks"] = [r["check"] for r in document["results"]]
        expected["audit"].append(config)
    expected["long"] = {"picks": LONG_PICKS, "lengths": list(LONG_LENGTHS), "systems": [
        {"system": name, "sigma": sigma, "pool": long_pool(rng, name, sigma)}
        for name, sigma in LONG_SYSTEMS
    ]}
    expected["wide"] = {"systems": [
        {"system": name, "sigma": sigma, "pool": wide_pool(rng, name, sigma)}
        for name, sigma in WIDE_SYSTEMS
    ]}
    warm_rng = random.Random(POOL_SEED + 1)  # leaves the pools' draws unchanged
    for key, run in (("long", workloads.check), ("wide", workloads.confirmed_check)):
        for spec in expected[key]["systems"]:
            spec["warmup"] = warmup_element(warm_rng, spec["system"], spec["sigma"], run,
                                            spec["pool"])
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
