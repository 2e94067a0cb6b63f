"""The four benchmark workloads, driven through adlv's public functions.

Each workload has a cold ``setup`` (fresh root systems up to the first
verdict), a fixed list of ``items`` for one pass, an ``execute`` step (the
timed operation) and a ``verify`` step that checks its output against the
digests pinned in ``expected.json``.  Library functions are looked up on
their modules at call time, so the tracer's wrappers see every call.  No
root system outlives a pass: sweep and audit build theirs in every command,
and long and wide use the fresh ones of the set-up that precedes each pass.
So a cache keyed on an element can only hit within one operation, as in one
CLI invocation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from time import perf_counter

CATEGORIES = (
    "cap_exceeded", "internal_check_error", "adlv_error", "exception",
    "disagreement", "digest_mismatch",
)
RULE_CRITERION = "sigma-support-criterion"


def classify(exc: BaseException) -> str:
    from adlv import errors

    if isinstance(exc, errors.CapExceeded):
        return "cap_exceeded"
    if isinstance(exc, errors.InternalCheckError):
        return "internal_check_error"
    if isinstance(exc, errors.AdlvError):
        return "adlv_error"
    return "exception"


def exit_category(code: int) -> str:
    """CLI exit codes: 1 property failure, 3 cap exceeded, 2/4 rejected input."""
    return {1: "disagreement", 3: "cap_exceeded"}.get(code, "adlv_error")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`adlv <argv>` in this process, with standard output captured."""
    from adlv import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def csv_disagreements(text: str) -> int:
    """Rows of an enumerate CSV where the criterion and the oracle disagree."""
    return sum(1 for row in csv.DictReader(io.StringIO(text)) if row["agree"] == "False")


def _common_args(config: dict) -> list[str]:
    return ["--system", config["system"], "--sigma", config["sigma"]]


# -- the adlv check path -------------------------------------------------------


def make_context(system_name: str, sigma_text: str):
    from adlv import notation

    system = notation.parse_system(system_name)
    return system, notation.parse_sigma(system, sigma_text), sigma_text


def check(context, text: str):
    """What `adlv check` computes for one element, on a system already set up."""
    from adlv import alcove, cli, criterion, iwahori, notation

    system, sigma, sigma_text = context
    x = notation.parse_affine(system, text)
    kappa = iwahori.kottwitz(x)
    profile = alcove.AlcoveProfile.build(x, sigma)
    verdict = criterion.decide_nonempty(x, kappa, sigma, profile)
    document = cli.verdict_json(system, sigma_text, x, kappa, verdict, profile)
    return document, (x, kappa, profile, verdict)


def confirmed_check(context, text: str):
    """check, then the oracle wherever it applies (full affine sigma-support)."""
    from adlv import criterion

    document, (x, kappa, profile, verdict) = check(context, text)
    oracle = None
    if verdict.rule == RULE_CRITERION:
        oracle = criterion.oracle_nonempty(x, kappa, context[1], profile)
    return document, (x, kappa, profile, verdict), oracle


def verdict_digest(document: dict) -> str:
    return digest([document["x"], document["nonempty"], document["rule"],
                   document["witnesses"]])


def confirmed_digest(context, output) -> str:
    from adlv import cli

    document, (x, kappa, profile, _), oracle = output
    oracle_part = None
    if oracle is not None:
        oracle_doc = cli.verdict_json(context[0], context[2], x, kappa, oracle, profile)
        oracle_part = [oracle_doc["nonempty"], oracle_doc["rule"], oracle_doc["witnesses"]]
    return digest([verdict_digest(document), oracle_part])


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""

    def units(self, item) -> int:
        return 1

    def latencies(self, index: int, seconds: float, output) -> list:
        """(key, seconds) latency samples of one executed item."""
        return [(index, seconds)]


class Sweep(Workload):
    """`adlv enumerate --kappa-b match-x --format csv --jobs 1`; a unit is a row."""

    name = "sweep"

    def __init__(self, expected: dict, seed: int, tiny: bool = False):
        configs = expected["sweep"]
        self.items = configs[1:2] if tiny else configs

    @staticmethod
    def _argv(config: dict, length_bound: int) -> list[str]:
        return ["enumerate", *_common_args(config), "--length-bound", str(length_bound),
                "--kappa-b", "match-x", "--format", "csv", "--jobs", "1"]

    def setup(self) -> int:
        rows = 0
        for config in self.items:
            code, text = run_cli(self._argv(config, 0))
            if code != 0:
                raise RuntimeError(f"enumerate at length 0 exited {code}")
            rows += text.count("\n") - 1
        return rows

    def units(self, config) -> int:
        return config["rows"]

    def execute(self, config):
        return run_cli(self._argv(config, config["length_bound"]))

    def verify(self, config, output) -> dict:
        code, text = output
        if code != 0:
            return {exit_category(code): config["rows"]}
        disagreements = csv_disagreements(text)
        if disagreements:
            return {"disagreement": disagreements}
        if hashlib.sha256(text.encode()).hexdigest() != config["sha256"]:
            return {"digest_mismatch": config["rows"]}
        return {}


class Audit(Workload):
    """`adlv crosscheck`; a unit is one battery check."""

    name = "audit"

    def __init__(self, expected: dict, seed: int, tiny: bool = False):
        configs = expected["audit"]
        self.items = configs[1:] if tiny else configs
        self.seed = seed

    def _argv(self, config: dict, length_bound: int) -> list[str]:
        return ["crosscheck", *_common_args(config), "--length-bound", str(length_bound),
                "--seed", str(self.seed)]

    def setup(self) -> int:
        """The first verdict on each system, as sweep's set-up: `crosscheck`
        at length 0 would run the whole battery and leave fewer passes."""
        for config in self.items:
            code, _ = run_cli(Sweep._argv(config, 0))
            if code != 0:
                raise RuntimeError(f"enumerate at length 0 exited {code}")
        return 0  # no battery checks

    def units(self, config) -> int:
        return len(config["checks"])

    def execute(self, config):
        """crosscheck, timing each battery check: a check is the latency sample."""
        from adlv import audit

        timings: list[float] = []

        def timed(fn):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    timings.append(perf_counter() - start)
            return wrapper

        checks = {name: fn for name, fn in vars(audit).items()
                  if name.startswith("check_") and callable(fn)}
        for name, fn in checks.items():
            setattr(audit, name, timed(fn))
        try:
            code, text = run_cli(self._argv(config, config["length_bound"]))
        finally:
            for name, fn in checks.items():
                setattr(audit, name, fn)
        return code, text, timings

    def latencies(self, index: int, seconds: float, output) -> list:
        if output is None:
            return [(index, seconds)]
        return [((index, position), t) for position, t in enumerate(output[2])]

    def verify(self, config, output) -> dict:
        code, text, _ = output
        units = len(config["checks"])
        if code not in (0, 1):
            return {exit_category(code): units}
        document = json.loads(text)
        if [r["check"] for r in document["results"]] != config["checks"]:
            return {"digest_mismatch": units}
        if code != 0 or document["failures"]:
            return {"disagreement": max(1, document["failures"])}
        return {}


class _ElementWorkload(Workload):
    """Element strings on systems set up before the pass; a unit is one element.

    Set-up runs each system's warm-up element, which is not among the items,
    so the first verdict fills the per-system caches outside the timed
    operations and no timed element has run on these systems before.
    """

    def setup(self) -> int:
        self.contexts = []
        for spec in self.specs:
            context = make_context(spec["system"], spec["sigma"])
            self.run(context, spec["warmup"])
            self.contexts.append(context)
        return len(self.specs)

    def execute(self, item):
        index, text, _ = item
        return self.run(self.contexts[index], text)


class Long(_ElementWorkload):
    """The `adlv check` path; a few elements per length stratum and system."""

    name = "long"
    run = staticmethod(check)

    def __init__(self, expected: dict, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        spec = expected["long"]
        self.specs = spec["systems"]
        picks = 1 if tiny else spec["picks"]
        items = []
        for index, system_spec in enumerate(self.specs):
            strata: dict[int, list] = {}
            for stratum, text, expected_digest in system_spec["pool"]:
                strata.setdefault(stratum, []).append((text, expected_digest))
            chosen = sorted(strata)[:1] if tiny else sorted(strata)
            for stratum in chosen:
                for text, expected_digest in rng.sample(strata[stratum], picks):
                    items.append((index, text, expected_digest))
        rng.shuffle(items)
        self.items = items

    def verify(self, item, output) -> dict:
        return {} if verdict_digest(output[0]) == item[2] else {"digest_mismatch": 1}


class Wide(_ElementWorkload):
    """check plus oracle confirmation on systems with a large W0; half the
    elements of each system are nonempty, half empty.

    Every pass runs the whole pool, in an order drawn from the seed: these
    operations differ in cost by up to 1.7x, so drawing a subset would make
    the figures depend on the seed.
    """

    name = "wide"
    run = staticmethod(confirmed_check)

    def __init__(self, expected: dict, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        spec = expected["wide"]
        self.specs = spec["systems"][:1] if tiny else spec["systems"]
        items = []
        for index, system_spec in enumerate(self.specs):
            for nonempty in (True, False):
                group = [entry[1:] for entry in system_spec["pool"] if entry[0] is nonempty]
                for text, expected_digest in group[:1] if tiny else group:
                    items.append((index, text, expected_digest))
        rng.shuffle(items)
        self.items = items

    def verify(self, item, output) -> dict:
        _, (_, _, _, verdict), oracle = output
        if oracle is not None and oracle.nonempty != verdict.nonempty:
            return {"disagreement": 1}
        if confirmed_digest(self.contexts[item[0]], output) != item[2]:
            return {"digest_mismatch": 1}
        return {}


WORKLOADS = {w.name: w for w in (Sweep, Long, Wide, Audit)}
