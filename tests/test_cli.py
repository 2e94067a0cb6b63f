"""External surfaces: element notation, CLI commands, rendering, JSON schema."""

import argparse
import concurrent.futures
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import adlv.alcove
import adlv.cli
import adlv.criterion
import adlv.iwahori
import adlv.weyl
from adlv import audit
from adlv.cartan import RootSystem
from adlv.cli import main as cli_main
from adlv.errors import InternalCheckError, NotationError
from adlv.iwahori import enumerate_affine, kottwitz, kottwitz_group, omega_elements
from adlv.notation import (
    format_affine,
    format_finite,
    format_fraction,
    parse_affine,
    parse_finite,
    parse_kappa,
    parse_sigma,
)
from adlv.weyl import DiagramAutomorphism, FiniteWeylElement, _intern, embedding_order

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "adlv" / "schemas" / "adlv.schema.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def sid(system):
    return DiagramAutomorphism.identity(system)


# -- notation ----------------------------------------------------------------------


@pytest.mark.parametrize("descriptor,bound", [("A2", 4), ("B2", 4), ("A1+A1", 3)])
def test_affine_roundtrip(descriptor, bound):
    system = RootSystem.from_descriptor(descriptor)
    for x in enumerate_affine(system, bound):
        assert parse_affine(system, format_affine(x)) == x


def test_parse_affine_examples(a2, a1):
    x = parse_affine(a2, "t[1,0] s1 s2")
    assert x.translation == (1, 0)
    assert x.finite == FiniteWeylElement.simple(a2, 0) * FiniteWeylElement.simple(a2, 1)
    assert parse_affine(a2, "e").is_identity()
    # affine word: S0 s1 in A1 is the coroot translation
    assert parse_affine(a1, "S0 s1").translation == (2,)
    # stabilizer label: o[1,0] is the length-zero element in the class of t[1,0]
    omega = parse_affine(a2, "o[1,0]")
    assert omega.length == 0
    assert kottwitz(omega).rep == kottwitz(parse_affine(a2, "t[1,0]")).rep


@pytest.mark.parametrize("text,position", [
    ("t[1,", 0), ("s9", 0), ("t[1,0] s9", 7), ("foo", 0), ("t[1,0,0]", 0),
])
def test_parse_affine_errors(a2, text, position):
    with pytest.raises(NotationError) as info:
        parse_affine(a2, text)
    assert info.value.position == position


def test_parse_affine_component_labels():
    system = RootSystem.from_descriptor("A1+A1")
    x = parse_affine(system, "S0@2 s2")
    assert x.translation == (0, 2) and x.finite.is_identity()
    with pytest.raises(NotationError):
        parse_affine(system, "S0")  # ambiguous without a component tag


def test_render_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(["render", "--system", "B2", "--length-bound", "3"],
                               capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_parse_finite(a2):
    w = parse_finite(a2, "s1 s2 s1")
    assert w.length == 3
    assert format_finite(w) == "s1 s2 s1"
    assert parse_finite(a2, "e").is_identity()
    with pytest.raises(NotationError):
        parse_finite(a2, "t[1,0]")


def test_parse_sigma(a3, a2):
    assert parse_sigma(a3, "id").is_identity()
    flip = parse_sigma(a3, "(1 3)")
    assert flip.perm == (2, 1, 0)
    with pytest.raises(NotationError):
        parse_sigma(a3, "(1 2)")  # does not preserve the Cartan matrix
    with pytest.raises(NotationError):
        parse_sigma(a2, "(1 5)")
    both = RootSystem.from_descriptor("A2+A2")
    swap = parse_sigma(both, "(1 3)(2 4)")
    assert swap.order == 2


def test_parse_kappa(a2):
    assert parse_kappa(a2, "match-x") is None
    kappa = parse_kappa(a2, "[1,0]")
    assert not kappa.is_zero()
    with pytest.raises(NotationError):
        parse_kappa(a2, "[1]")


@pytest.mark.parametrize("descriptor", ["A1", "A3", "B3", "D4", "E6", "G2", "A2+A2"])
def test_class_text_is_format_fraction_of_each_coordinate(descriptor):
    """Class representatives lie in [0, 1), so str writes them as format_fraction does."""
    for k in kottwitz_group(RootSystem.from_descriptor(descriptor)):
        assert k.text == ";".join(format_fraction(c) for c in k.rep)


# -- geometric alcove-walk oracle ----------------------------------------------------


def geometric_alcove_count(system, bound):
    """Count alcoves within a wall-crossing distance, purely from barycenters.

    Neighbors are reflections across facet hyperplanes; a hyperplane is a facet
    exactly when the reflection changes the k-value of just one root pair.
    """

    def k_vector(point):
        out = []
        for a in system.positive_roots:
            value = system.pair(a, point)
            out.append(value.numerator // value.denominator)
        return tuple(out)

    def neighbors(point):
        base = k_vector(point)
        for idx, a in enumerate(system.positive_roots):
            coroot = system.coroot_of(a)
            value = system.pair(a, point)
            for level in (base[idx], base[idx] + 1):
                mirrored = tuple(
                    p - (value - level) * c for p, c in zip(point, coroot))
                changed = [
                    i for i, (x, y) in enumerate(zip(base, k_vector(mirrored)))
                    if x != y
                ]
                if changed == [idx]:
                    yield mirrored

    start = system.base_alcove_barycenter()
    seen = {start}
    frontier = [start]
    for _ in range(bound):
        nxt = []
        for point in frontier:
            for neighbor in neighbors(point):
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    return len(seen)


def test_enumeration_count_matches_geometric_walk(a2, b2):
    for system, bound in ((a2, 4), (b2, 4)):
        elements = list(enumerate_affine(system, bound))
        alcoves = geometric_alcove_count(system, bound)
        assert len(elements) == alcoves * len(omega_elements(system))


# -- CLI ---------------------------------------------------------------------------


def run_cli(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_identity(a2, capsys):
    code, out, _ = run_cli(["check", "e", "--system", "A2"], capsys)
    assert code == 0
    document = json.loads(out)
    assert document["nonempty"] is True
    assert document["rule"] == "shortcut-firstlemma"


def test_check_translation_a1(capsys):
    code, out, _ = run_cli(["check", "t[2]", "--system", "A1"], capsys)
    assert code == 0
    document = json.loads(out)
    assert document["nonempty"] is False
    assert document["profile"]["shrunken"] is True


def test_check_parse_error(capsys):
    code, _, err = run_cli(["check", "t[1,", "--system", "A2"], capsys)
    assert code == 2
    assert "char" in err


def test_check_match_x(capsys):
    code, out, _ = run_cli(
        ["check", "t[1,0]", "--system", "A2", "--kappa-b", "match-x"], capsys)
    assert code == 0
    document = json.loads(out)
    assert document["rule"] == "sigma-support-criterion"
    assert document["nonempty"] is False


def test_enumerate_row_counts(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--system", "A2", "--length-bound", "4",
         "--kappa-b", "match-x"], capsys)
    assert code == 0
    document = json.loads(out)
    a2 = RootSystem.from_descriptor("A2")
    assert len(document["rows"]) == geometric_alcove_count(a2, 4) * 3
    lengths = [row["length"] for row in document["rows"]]
    assert lengths == sorted(lengths)


def test_enumerate_bound_zero(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--system", "B2", "--length-bound", "0"], capsys)
    assert code == 0
    document = json.loads(out)
    assert len(document["rows"]) == 2  # the two length-zero elements
    assert all(row["length"] == 0 for row in document["rows"])


def test_enumerate_agreement_column(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--system", "A2", "--length-bound", "6",
         "--kappa-b", "match-x"], capsys)
    assert code == 0
    document = json.loads(out)
    applicable = [row for row in document["rows"] if row["oracle_applicable"]]
    assert applicable
    assert all(row["agree"] is True for row in applicable)
    not_applicable = [row for row in document["rows"] if not row["oracle_applicable"]]
    assert all(row["agree"] is None for row in not_applicable)


def test_enumerate_csv_columns(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--system", "A1", "--length-bound", "2", "--format", "csv"],
        capsys)
    assert code == 0
    header = out.splitlines()[0].split(",")
    from adlv.cli import ENUM_COLUMNS

    assert header == ENUM_COLUMNS


def test_enumerate_cap_exceeded(capsys):
    code, _, err = run_cli(
        ["enumerate", "--system", "A2", "--length-bound", "8", "--cap", "10"], capsys)
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("args, code, message", [
    (["enumerate", "--system", "A3", "--length-bound", "0", "--cap", "2"], 3,
     "enumeration at length 0 exceeds cap 2"),
    (["enumerate", "--system", "A3", "--cap", "0"], 2, "cap must be at least 1"),
    (["enumerate", "--system", "A3", "--cap", "-1"], 2, "cap must be at least 1"),
    (["render", "--system", "A2", "--kappa-b", "[0,0]", "--cap", "0"], 2,
     "cap must be at least 1"),
])
def test_cap_refusal_is_one_error_line(args, code, message, capsys):
    """The cap counts Omega too, and a cap below 1 is refused as input."""
    assert run_cli(args, capsys) == (code, "", f"error: {message}\n")


REFUSED_ENUMERATION = ["enumerate", "--system", "A2", "--length-bound", "60",
                       "--cap", "3000"]


def test_refused_enumeration_decides_no_row(monkeypatch, capsys):
    """The walk is listed before any row is decided, so a refusal costs no rows."""
    decided = []
    original = adlv.cli.decide_nonempty

    def counting(*args):
        decided.append(args[0])
        return original(*args)

    monkeypatch.setattr(adlv.cli, "decide_nonempty", counting)
    code, _, err = run_cli([*REFUSED_ENUMERATION, "--jobs", "1"], capsys)
    assert (code, err) == (3, "error: enumeration at length 26 exceeds cap 3000\n")
    assert decided == []


def test_workers_refusal_crosses_the_process_boundary():
    proc = subprocess.run([sys.executable, "-m", "adlv", *REFUSED_ENUMERATION, "--jobs", "2"],
                          capture_output=True, timeout=600)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr == b"error: enumeration at length 26 exceeds cap 3000\n"


def test_config_file_and_overrides(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        "# sample configuration\nsystem=A2\nsigma=id\nlength_bound=3\n"
        "kappa_b=match-x\nformat=json\n")
    code, out, _ = run_cli(["enumerate", "--config", str(config)], capsys)
    assert code == 0
    assert json.loads(out)["length_bound"] == 3
    code, out, _ = run_cli(
        ["enumerate", "--config", str(config), "--length-bound", "0"], capsys)
    assert json.loads(out)["length_bound"] == 0


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("system=A2\n# misspelt below\nlenght_bound=2\n")
    code, out, err = run_cli(["enumerate", "--config", str(config)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {config}:3: unknown key 'lenght_bound'\n"


def test_config_file_rejects_non_integer_value(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("system=A2\nlength_bound=two\n")
    code, out, err = run_cli(["enumerate", "--config", str(config)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {config}:2: length_bound must be an integer, got 'two'\n"


def test_config_file_rejects_key_its_command_does_not_read(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("system=A1\nlength_bound=1\nseed=1\n")
    code, out, err = run_cli(["enumerate", "--config", str(config)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {config}:3: unknown key 'seed'\n"
    code, out, _ = run_cli(["crosscheck", "--config", str(config)], capsys)
    assert code == 0
    assert json.loads(out)["length_bound"] == 1


FLAGS_READ = {
    "check": "--config --system --sigma --kappa-b --out",
    "enumerate": "--config --system --sigma --length-bound --kappa-b --format --out --jobs --cap",
    "crosscheck": "--config --system --sigma --length-bound --out --seed",
    "render": "--config --system --sigma --length-bound --kappa-b --out --cap",
    "bgx": "--config --system --sigma --out",
}


@pytest.mark.parametrize("command", FLAGS_READ)
def test_subcommand_flags_match_the_readme(command):
    parser = adlv.cli.make_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {option for action in subparsers.choices[command]._actions
              for option in action.option_strings} - {"-h", "--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = next(line for line in readme.splitlines() if line.startswith(f"- `{command}"))
    assert parsed == set(re.findall(r"--[a-z-]+", listed)) == set(FLAGS_READ[command].split())


@pytest.mark.parametrize("args", [
    ["check", "e", "--system", "A2", "--jobs", "2"],
    ["render", "--system", "A2", "--format", "json"],
    ["crosscheck", "--system", "A2", "--kappa-b", "[1]"],
    ["bgx", "s1", "[1,0]", "--system", "A2", "--length-bound", "3"],
    ["enumerate", "--system", "A2", "--seed", "1"],
], ids=lambda args: args[0])
def test_flag_its_command_does_not_read_is_refused(args, capsys):
    with pytest.raises(SystemExit) as info:
        cli_main(args)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized arguments: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("args, message", [
    ([], "the following arguments are required: command"),
    (["check", "--system", "A2"], "the following arguments are required: element"),
    (["chek"], "argument command: invalid choice: 'chek' (choose from 'check', "
               "'enumerate', 'crosscheck', 'render', 'bgx')"),
    (["enumerate", "--system", "A2", "--jobs", "two"],
     "argument --jobs: invalid int value: 'two'"),
], ids=["no-command", "no-element", "bad-command", "bad-int"])
def test_argparse_refusal_is_one_error_line(args, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli_main(args)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["check", "t[" + "1" * 5000 + ",0]", "--system", "A2"], "at char 0: an integer"),
    (["check", "s1 s" + "1" * 5000, "--system", "A2"], "at char 3: an integer"),
    (["check", "e", "--system", "A3", "--sigma", "(1 " + "3" * 5000 + ")"], "an integer"),
    (["check", "e", "--system", "A" + "1" * 5000], "a rank"),
], ids=["vector", "reflection", "sigma", "rank"])
def test_overlong_integer_is_validation_error(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message} of 5000 digits is too long\n"


def test_enumerate_rejects_svg_format(capsys):
    code, out, err = run_cli(
        ["enumerate", "--system", "A2", "--length-bound", "1", "--format", "svg"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: enumerate writes json or csv, not svg\n"


def test_config_file_with_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte-order mark before the first key is not part of the key."""
    plain, marked = tmp_path / "plain.conf", tmp_path / "marked.conf"
    plain.write_bytes(b"system=A2\n")
    marked.write_bytes(b"\xef\xbb\xbfsystem=A2\n")
    expected = run_cli(["check", "e", "--config", str(plain)], capsys)
    assert expected[0] == 0
    assert run_cli(["check", "e", "--config", str(marked)], capsys) == expected


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "absent.conf"
    code, _, err = run_cli(["enumerate", "--config", str(path)], capsys)
    assert code == 2
    assert err == f"error: cannot read config file {path}: No such file or directory\n"


def test_unreadable_config_file_is_validation_error(tmp_path, capsys):
    code, _, err = run_cli(["enumerate", "--config", str(tmp_path)], capsys)
    assert code == 2
    assert err == f"error: cannot read config file {tmp_path}: Is a directory\n"
    binary = tmp_path / "binary.conf"
    binary.write_bytes(b"system=A2\n\xff\n")
    code, _, err = run_cli(["enumerate", "--config", str(binary)], capsys)
    assert code == 2
    assert err.startswith("error: 'utf-8' codec can't decode") and err.count("\n") == 1


UNWRITABLE_OUT_COMMANDS = {
    "check": ["check", "e", "--system", "A2"],
    "enumerate": ["enumerate", "--system", "A2", "--length-bound", "1"],
    "crosscheck": ["crosscheck", "--system", "A1", "--length-bound", "1"],
    "render": ["render", "--system", "A2", "--length-bound", "1", "--kappa-b", "[0,0]"],
    "bgx": ["bgx", "s1", "[1,0]", "--system", "A2"],
}


@pytest.mark.parametrize("command", list(UNWRITABLE_OUT_COMMANDS))
@pytest.mark.parametrize("target,reason", [
    ("missing-directory", "No such file or directory"), ("directory", "Is a directory"),
])
def test_unwritable_out_is_validation_error(command, target, reason, tmp_path, capsys):
    path = tmp_path / "absent" / "x.json" if target == "missing-directory" else tmp_path
    code, out, err = run_cli([*UNWRITABLE_OUT_COMMANDS[command], "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write output file {path}: {reason}\n"


def test_missing_system_is_validation_error(capsys):
    code, _, err = run_cli(["enumerate", "--length-bound", "2"], capsys)
    assert code == 2


def test_invalid_config_values(capsys):
    code, _, _ = run_cli(["enumerate", "--system", "A2", "--length-bound", "-1"],
                         capsys)
    assert code == 2
    code, _, _ = run_cli(["enumerate", "--system", "A2", "--jobs", "0"], capsys)
    assert code == 2
    code, _, _ = run_cli(["check", "e", "--system", "H3"], capsys)
    assert code == 2
    code, _, _ = run_cli(["check", "e", "--system", "A3", "--sigma", "(1 2)"], capsys)
    assert code == 2


def test_internal_error_exits_5_with_one_line(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalCheckError("stabilizer formula disagrees with the alcove computation")

    monkeypatch.setattr("adlv.cli.bgx_cordial", broken)
    code, out, err = run_cli(["bgx", "s1", "[1,0]", "--system", "A2"], capsys)
    assert code == 5
    assert out == ""
    assert err == "error: stabilizer formula disagrees with the alcove computation\n"


def test_library_value_error_exits_5_with_one_line(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("oracle precondition: class invariants must match")

    monkeypatch.setattr("adlv.cli.decide_nonempty", broken)
    code, out, err = run_cli(["check", "e", "--system", "A2"], capsys)
    assert code == 5
    assert out == ""
    assert err == "error: oracle precondition: class invariants must match\n"


def test_render_strip_band_counts(capsys):
    code, out, _ = run_cli(["render", "--system", "A2", "--length-bound", "2"], capsys)
    assert code == 0
    assert out.count('class="strip"') == 3
    code, out, _ = run_cli(["render", "--system", "G2", "--length-bound", "1"], capsys)
    assert code == 0
    assert out.count('class="strip"') == 6


def test_render_bound_zero_walls_only(capsys):
    code, out, _ = run_cli(["render", "--system", "A2", "--length-bound", "0"], capsys)
    assert code == 0
    assert 'class="strip"' not in out
    assert out.count('class="alcove"') == 1  # just the base alcove
    assert out.count('class="base-alcove"') == 1


def test_render_rejects_higher_rank(capsys):
    code, _, err = run_cli(["render", "--system", "A3", "--length-bound", "1"], capsys)
    assert code == 4


def test_render_a1a1(capsys):
    code, out, _ = run_cli(
        ["render", "--system", "A1+A1", "--length-bound", "2"], capsys)
    assert code == 0
    assert out.count('class="strip"') == 2


def test_bgx_command(capsys):
    code, out, _ = run_cli(
        ["bgx", "s1 s2 s1", "[1,0]", "--system", "A2"], capsys)
    assert code == 0
    document = json.loads(out)
    assert document["w_x_formula"] == ["e"]
    assert document["w_x_formula"] == document["w_x_alcove"]
    assert document["conclusion"] == "equals-b-g-mu"
    assert document["cap_stable"] is True


def test_bgx_central(capsys):
    code, out, _ = run_cli(["bgx", "s1", "[0,0]", "--system", "A2"], capsys)
    assert code == 0
    document = json.loads(out)
    assert document["mu_central"] is True
    assert len(document["points"]) == 1


def test_bgx_rejects_nondominant(capsys):
    code, _, err = run_cli(["bgx", "s1", "[-1,0]", "--system", "A2"], capsys)
    assert code == 2


def test_crosscheck_passes(capsys):
    code, out, _ = run_cli(
        ["crosscheck", "--system", "A2", "--length-bound", "5"], capsys)
    assert code == 0
    document = json.loads(out)
    assert document["failures"] == 0
    assert any(r["check"] == "criterion-oracle-equivalence" for r in document["results"])


def test_crosscheck_rank_one(capsys):
    # the suites run on a rank-one system; single-strip elements exist there
    code, out, _ = run_cli(["crosscheck", "--system", "A1", "--length-bound", "6"],
                           capsys)
    assert code == 0
    document = json.loads(out)
    assert document["failures"] == 0
    a1 = RootSystem.from_descriptor("A1")
    from adlv.alcove import AlcoveProfile
    from adlv.iwahori import enumerate_affine

    one_strip = [
        x for x in enumerate_affine(a1, 6)
        if len(AlcoveProfile.build(x, sid(a1)).phi_x) == 1
    ]
    assert one_strip  # the set the skipped check would range over is nonvacuous


def test_crosscheck_failure_exit_code(monkeypatch, capsys):
    failing = audit.CheckResult("synthetic", False, "forced failure", {"x": "e"})
    monkeypatch.setattr(audit, "run_battery", lambda *a, **k: [failing])
    code, out, _ = run_cli(["crosscheck", "--system", "A2", "--length-bound", "2"],
                           capsys)
    assert code == 1
    assert json.loads(out)["failures"] == 1


def flipped_k_numbers(d):
    """``alcove.k_numbers`` with the direction convention flipped."""
    pairings = adlv.weyl.positive_pairings(d.v.system, d.v.act_on_coweight(d.mu))
    positive = (d.v * d.w).inverse_positive()
    return tuple(p - 1 if up else p for p, up in zip(pairings, positive))


def test_crosscheck_detects_injected_fault(a2, monkeypatch):
    # flipping the direction convention inside the k-value closed form must
    # break the strip-set complement property and be caught with a witness
    monkeypatch.setattr(adlv.alcove, "k_numbers", flipped_k_numbers)
    result = audit.check_strip_complement_radical_closed(a2, 4)
    assert not result.passed
    assert result.counterexample is not None


def test_walk_never_reads_the_closed_form(a2, monkeypatch, capsys):
    """The length walk carries k-values without ``alcove.k_numbers``: under a
    broken closed form the k-value oracle tells the two apart at once, and
    ``enumerate``, which only walks, prints its golden bytes."""
    monkeypatch.setattr(adlv.alcove, "k_numbers", flipped_k_numbers)
    result = audit.check_k_value_oracle(a2, 4)
    assert not result.passed
    assert result.detail == "walked decomposition or k-values differ from the closed form"
    assert result.counterexample == {"x": "e"}
    code, out, _ = run_cli(["enumerate", "--system", "A2", "--length-bound", "8",
                            "--kappa-b", "match-x", "--format", "csv"], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / "enumerate_A2_L8.csv").read_text(encoding="utf-8")


# -- golden outputs and caps ---------------------------------------------------------


@pytest.mark.parametrize("name,args", [
    ("enumerate_A2_L8.csv", ["enumerate", "--system", "A2", "--length-bound", "8",
                             "--kappa-b", "match-x", "--format", "csv"]),
    ("enumerate_G2_L8.json", ["enumerate", "--system", "G2", "--length-bound", "8",
                              "--kappa-b", "match-x", "--format", "json"]),
    ("enumerate_A3_13_L6.csv", ["enumerate", "--system", "A3", "--sigma", "(1 3)",
                                "--length-bound", "6", "--kappa-b", "match-x",
                                "--format", "csv"]),
    ("crosscheck_A2_L6.json", ["crosscheck", "--system", "A2", "--length-bound", "6"]),
    ("check_A2_t11s1.json", ["check", "t[1,1] s1", "--system", "A2", "--kappa-b", "match-x"]),
    ("check_A3_13_t101s1s2.json", ["check", "t[1,0,1] s1 s2", "--system", "A3",
                                   "--sigma", "(1 3)", "--kappa-b", "match-x"]),
    ("bgx_A2_s1s2_11.json", ["bgx", "s1 s2", "[1,1]", "--system", "A2"]),
    ("bgx_A2_e_10.json", ["bgx", "e", "[1,0]", "--system", "A2"]),
    ("crosscheck_G2_L4.json", ["crosscheck", "--system", "G2", "--length-bound", "4",
                               "--seed", "1"]),
    ("crosscheck_A3_13_L3.json", ["crosscheck", "--system", "A3", "--sigma", "(1 3)",
                                  "--length-bound", "3"]),
    # the default zero class: classes 0 and 2 share a coinvariant here
    ("enumerate_A3_13_L4.csv", ["enumerate", "--system", "A3", "--sigma", "(1 3)",
                                "--length-bound", "4", "--format", "csv"]),
    ("enumerate_A5_15_24_L1_k00100.csv", ["enumerate", "--system", "A5",
                                          "--sigma", "(1 5)(2 4)", "--length-bound", "1",
                                          "--kappa-b", "[0,0,1,0,0]", "--format", "csv"]),
    # the printed kappa (0, 1/2) is a different class from mu's (1/2, 0)
    ("bgx_A1A1_12_s1_10.json", ["bgx", "s1", "[1,0]", "--system", "A1+A1",
                                "--sigma", "(1 2)"]),
    # empty, shortcut and nonempty fills, and the C2 coroot plane
    ("render_C2_L4.svg", ["render", "--system", "C2", "--length-bound", "4"]),
])
def test_golden_output_bytes(name, args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("system,element", [
    ("E7", "t[2,0,0,0,0,0,0] s1"), ("E8", "t[2,0,0,0,0,0,0,0]"),
])
def test_check_refuses_w0_over_cap(system, element, capsys):
    order = RootSystem.from_descriptor(system).weyl_order()
    start = perf_counter()
    code, _, err = run_cli(["check", element, "--system", system], capsys)
    assert perf_counter() - start < 1.0
    assert code == 3
    assert err == f"error: |W0| = {order} exceeds the cap 1000000\n"


def test_bgx_refuses_w0_over_cap(capsys):
    """W_x of v t^0 is nearly all of W0 and has no budget of its own, so bgx
    keeps the |W0| refusal on E8 though it lists no W0."""
    start = perf_counter()
    code, out, err = run_cli(["bgx", "s1", "[0,0,0,0,0,0,0,0]", "--system", "E8"], capsys)
    assert perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == "error: |W0| = 696729600 exceeds the cap 1000000\n"


def test_check_refuses_more_than_256_roots(capsys):
    # E8+E6 has 240 + 72 roots; a root permutation is a bytes object
    code, out, err = run_cli(["check", "s1 s2", "--system", "E8+E6"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: 312 roots exceed the root-permutation limit of 256\n"


def test_check_refuses_a_large_rank_before_building_it(capsys):
    """A300 is counted from its type, not generated: no rank-300 Cartan inverse."""
    start = perf_counter()
    code, out, err = run_cli(["check", "e", "--system", "A300"], capsys)
    assert perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == "error: 90300 roots exceed the root-permutation limit of 256\n"


@pytest.mark.parametrize("sigma_text, message", [
    ("(1 3)(1 2)", "index 1 appears twice, the second time in cycle '1 2'"),
    ("(2)(2 3)", "index 2 appears twice, the second time in cycle '2 3'"),
])
def test_check_refuses_overlapping_sigma_cycles(sigma_text, message, capsys):
    code, out, err = run_cli(["check", "e", "--system", "A3", "--sigma", sigma_text], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_e6_never_sweeps_w0(capsys):
    """No inversion-set walk of a single check covers all 36 positive roots,
    so W0 is never listed."""
    code, out, walked = run_cli_walks(["check", "t[2,2,2,2,2,2] s1", "--system", "E6"], capsys)
    assert code == 0
    assert walked and all(len(roots) < 36 for roots in walked)
    document = json.loads(out)
    assert document["rule"] == "sigma-support-criterion"
    assert document["nonempty"] is False


def run_cli_walks(args, capsys):
    """Run the CLI in process and record the root set S of every inversion-set
    walk {r : N(r) ⊆ S} it makes (``weyl.embedding_order`` past its memo)."""
    with recording_walks() as walked:
        code, out, _ = run_cli(args, capsys)
    return code, out, walked


@contextlib.contextmanager
def recording_walks():
    """The root sets of the inversion-set walks made inside the block."""
    walk = embedding_order.__wrapped__.__code__
    walked = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code is walk:
            walked.append(frame.f_locals["roots"])

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        yield walked
    finally:
        sys.setprofile(previous)


@pytest.mark.parametrize("system_name,element", [
    ("E6", "t[2,2,2,2,2,2] s1 s2 s3 s4 s5 s6"),
    ("E6", "t[1,2,-2,2,-1,-2] s4 s3 s2 s4 s2 s1 s2"),
    ("F4", "t[-1,1,2,1] s1 s2 s3 s4 s1 s2 s3 s1"),
    ("F4", "t[2,-2,1,-2] s1 s2 s3 s4 s2 s3 s1 s2 s3 s4 s2 s3 s1 s2 s3 s1 s2"),
    ("F4", "t[3,-2,2,3] s4 s1 s2 s3 s1 s2 s1"),
])
def test_nonempty_oracle_never_lists_w0(system_name, element):
    """A nonempty oracle verdict scans minimal coset representatives of the
    maximal J only: no walk covers all of Phi+."""
    system = RootSystem.from_descriptor(system_name)
    sigma = parse_sigma(system, "id")
    x = parse_affine(system, element)
    profile = adlv.alcove.AlcoveProfile.build(x, sigma)
    assert profile.affine_support.full
    with recording_walks() as walked:
        verdict = adlv.criterion.oracle_nonempty(x, profile.kappa, sigma, profile)
    assert verdict.nonempty
    assert verdict.witnesses["pairs_scanned"] == system.weyl_order() * len(
        adlv.criterion.sigma_stable_subsets(system, sigma, True))
    assert all(len(roots) < len(system.positive_roots) for roots in walked)


# -- cost guards: call counts, no timing ----------------------------------------------


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name per first argument's key, through every adlv
    module that refers to it."""
    original = getattr(module, name)
    counts = Counter()

    def counting(x, *args, **kwargs):
        counts[x.key()] += 1
        return original(x, *args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.startswith("adlv") and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counting)
    return counts


def test_enumerate_jobs_one_builds_one_root_system(monkeypatch, capsys):
    built = []
    original = RootSystem.__init__

    def counting_init(self, components):
        built.append(components)
        original(self, components)

    monkeypatch.setattr(RootSystem, "__init__", counting_init)
    code, _, _ = run_cli(["enumerate", "--system", "A3", "--sigma", "(1 3)",
                          "--length-bound", "2", "--format", "csv", "--jobs", "1"], capsys)
    assert code == 0
    assert len(built) == 1


def test_enumerate_builds_sigma_and_its_inverse_once(monkeypatch, capsys):
    built = []
    original = DiagramAutomorphism.__post_init__

    def counting_post_init(self):
        built.append(self.perm)
        original(self)

    monkeypatch.setattr(DiagramAutomorphism, "__post_init__", counting_post_init)
    code, out, _ = run_cli(["enumerate", "--system", "A3", "--sigma", "(1 3)",
                            "--length-bound", "2", "--jobs", "1"], capsys)
    assert code == 0
    assert len(json.loads(out)["rows"]) == 60
    assert len(built) <= 2


def test_importing_the_cli_leaves_the_audit_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, adlv.cli; print('adlv.audit' in sys.modules)"],
        capture_output=True, timeout=600)
    assert proc.returncode == 0
    assert proc.stdout == b"False\n"


def test_importing_the_cli_leaves_the_process_pool_out():
    """``--jobs 1`` never pays for the pool's modules: the executor is
    imported only where a pool runs."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import adlv.cli, sys; print(sorted(m for m in "
         "('concurrent.futures', 'multiprocessing') if m in sys.modules))"],
        capture_output=True, timeout=600, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert proc.stdout == b"[]\n"


@pytest.mark.parametrize("kappa_b, jobs", [
    pytest.param(kappa_b, jobs, id=kappa_b + ("" if jobs == 1 else f"-jobs{jobs}"))
    for jobs in (1, 2) for kappa_b in ("zero", "match-x")])
def test_enumerate_row_computes_class_and_support_once(kappa_b, jobs, monkeypatch, capsys):
    """Every row's profile comes off the length walk, in each worker: a
    length-zero root's profile is known outright, so neither the closed-form
    profile nor the closed-form support runs, roots included."""
    monkeypatch.setattr(adlv.cli.os, "cpu_count", lambda: jobs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "created", [])
    supports = _count_calls(monkeypatch, adlv.iwahori, "affine_sigma_support")
    classes = _count_calls(monkeypatch, adlv.iwahori, "kottwitz")
    profiles = Counter()
    build = adlv.alcove.AlcoveProfile.build.__func__

    def counting_build(cls, x, sigma):
        profiles[x.key()] += 1
        return build(cls, x, sigma)

    monkeypatch.setattr(adlv.alcove.AlcoveProfile, "build", classmethod(counting_build))
    code, out, _ = run_cli(["enumerate", "--system", "A3", "--sigma", "(1 3)",
                            "--length-bound", "3", "--kappa-b", kappa_b,
                            "--format", "json", "--jobs", str(jobs)], capsys)
    assert code == 0
    assert _InlinePool.created == ([] if jobs == 1 else [jobs])
    system = RootSystem.from_descriptor("A3")
    elements = [parse_affine(system, row["x"]) for row in json.loads(out)["rows"]]
    assert len(elements) > 100
    roots = sorted(x.key() for x in elements if x.length == 0)
    assert len(roots) == 4
    assert not supports
    # Omega is classified while it is built, and each root once more
    assert all(classes[x.key()] == 0 for x in elements if x.length > 0)
    assert not profiles


_AUDIT_ELEMENT_CHECKS = [
    audit.check_criterion_oracle_equivalence,
    audit.check_shrunken_specialization,
    audit.check_one_strip_two_support,
    audit.check_translation_elements,
    audit.check_vtmu_elements,
    audit.check_conjecture_audit,
]


@pytest.mark.parametrize("check", _AUDIT_ELEMENT_CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("descriptor, sigma_text, bound", [("A2", "id", 4),
                                                           ("A3", "(1 3)", 5)])
def test_audit_check_computes_support_once_per_element(check, descriptor, sigma_text,
                                                       bound, monkeypatch):
    system = RootSystem.from_descriptor(descriptor)
    sigma = parse_sigma(system, sigma_text)
    # Omega and its table of classes are built once per system, before counting
    adlv.iwahori.omega_of_kottwitz(system, adlv.iwahori.KottwitzClass.zero(system))
    supports = _count_calls(monkeypatch, adlv.iwahori, "affine_sigma_support")
    classes = _count_calls(monkeypatch, adlv.iwahori, "kottwitz")
    assert check(system, sigma, bound).passed
    assert max(supports.values(), default=0) <= 1
    assert max(classes.values(), default=0) <= 1


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


@pytest.mark.parametrize("cpus, jobs, expected", [(2, 64, [2]), (4, 3, [3]),
                                                  (1, 8, []), (None, 8, [])])
def test_jobs_clamped_to_cpu_count(cpus, jobs, expected, monkeypatch, capsys):
    """The parts interleave back into walk order, also when they differ in
    size: A2 L<=4 has 93 rows and G2 L<=4 has 25."""
    monkeypatch.setattr(adlv.cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    for system in ("A2", "G2"):
        monkeypatch.setattr(_InlinePool, "created", [])
        base = ["enumerate", "--system", system, "--length-bound", "4", "--format", "csv"]
        code, clamped, _ = run_cli([*base, "--jobs", str(jobs)], capsys)
        assert code == 0
        assert _InlinePool.created == expected
        assert clamped == run_cli([*base, "--jobs", "1"], capsys)[1]


def test_python_dash_m_adlv():
    proc = subprocess.run([sys.executable, "-m", "adlv", "check", "e", "--system", "A1"],
                          capture_output=True, timeout=600)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rule"] == "shortcut-firstlemma"


# -- determinism and schema ----------------------------------------------------------


def test_enumerate_grows_w_x_once_per_phi_x(capsys):
    """D4 L<=1 has 24 rows but only 6 distinct strip sets Phi_x.  One of
    them is all of Phi+, on the 4 length-zero rows, whose |W_x| is |W0|
    and is not walked."""
    code, out, walked = run_cli_walks(["enumerate", "--system", "D4", "--length-bound", "1",
                                       "--jobs", "1"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 24
    assert [row["wx_size"] for row in rows if row["length"] == 0] == [192] * 4
    assert len(walked) == len(set(walked)) == 5
    assert len(RootSystem.from_descriptor("D4").positive_roots) not in map(len, walked)


@pytest.mark.parametrize("text_format, sha256", [
    ("csv", "51b09a99fcbf72a6403f649f129ad02dbf18a27d483b2275dbfd377fabb8e0ea"),
    ("json", "7052dc59a8fea3824604538342bcf80e54f3cd2e52679734e3e29ea7a52ef5fa"),
])
def test_enumerate_e6_length_zero_lists_no_w0(text_format, sha256, monkeypatch, capsys):
    """The 3 length-zero rows of E6 report |W_x| = |W0| = 51,840 without
    listing W0: the command's fresh system interns fewer elements than that
    and walks no inversion set over all of Phi+.  The output is pinned."""
    built = []
    original = RootSystem.__init__

    def recording_init(self, components):
        original(self, components)
        built.append(self)

    monkeypatch.setattr(RootSystem, "__init__", recording_init)
    code, out, _ = run_cli(["enumerate", "--system", "E6", "--length-bound", "0",
                            "--format", text_format], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
    (e6,) = built
    assert len(e6.memo[_intern]) < e6.weyl_order() == 51840
    assert (embedding_order.__wrapped__, frozenset(e6.positive_roots)) not in e6.memo


def run_cli_subprocess(args):
    proc = subprocess.run(
        [sys.executable, "-m", "adlv.cli", *args],
        capture_output=True, timeout=600)
    return proc.returncode, proc.stdout


def test_jobs_determinism_small():
    base = ["enumerate", "--system", "A2", "--length-bound", "5",
            "--kappa-b", "match-x", "--format", "csv"]
    code1, out1 = run_cli_subprocess([*base, "--jobs", "1"])
    code2, out2 = run_cli_subprocess([*base, "--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_jobs_determinism_twisted():
    base = ["enumerate", "--system", "A3", "--sigma", "(1 3)",
            "--length-bound", "4", "--kappa-b", "match-x"]
    code1, out1 = run_cli_subprocess([*base, "--jobs", "1"])
    code2, out2 = run_cli_subprocess([*base, "--jobs", "3"])
    assert code1 == code2 == 0
    assert out1 == out2


HASHES_OF_W0 = ("from adlv import RootSystem, enumerate_w0; "
                "print([hash(w) for w in enumerate_w0(RootSystem.from_descriptor('B3'))])")


@pytest.mark.parametrize("args", [
    ["-m", "adlv", "enumerate", "--system", "A3", "--sigma", "(1 3)", "--length-bound", "4",
     "--format", "csv"],
    ["-c", HASHES_OF_W0],
])
def test_output_does_not_depend_on_the_hash_seed(args):
    """Element hashes are ints of the simple-root images, not salted bytes
    hashes, so element hashes and set iteration order agree across processes."""
    procs = [subprocess.run([sys.executable, *args], capture_output=True, timeout=600,
                            env={**os.environ, "PYTHONHASHSEED": seed})
             for seed in ("1", "2")]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert procs[0].stdout.strip() and procs[0].stdout == procs[1].stdout


def load_schema():
    return json.loads(SCHEMA_PATH.read_text())


def test_documents_validate_against_schema(capsys, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_schema()
    validator = jsonschema.Draft202012Validator(schema)

    _, out, _ = run_cli(["check", "t[1,0] s1", "--system", "A2",
                         "--kappa-b", "match-x"], capsys)
    validator.validate(json.loads(out))

    _, out, _ = run_cli(["enumerate", "--system", "A1", "--length-bound", "3",
                         "--kappa-b", "match-x"], capsys)
    validator.validate(json.loads(out))

    _, out, _ = run_cli(["crosscheck", "--system", "A1", "--length-bound", "4"], capsys)
    validator.validate(json.loads(out))

    _, out, _ = run_cli(["bgx", "e", "[1,0]", "--system", "A2"], capsys)
    validator.validate(json.loads(out))


def test_verdict_rule_invariants_in_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_schema()
    validator = jsonschema.Draft202012Validator(schema)
    _, out, _ = run_cli(["check", "e", "--system", "A2"], capsys)
    document = json.loads(out)
    validator.validate(document)
    document["nonempty"] = False  # shortcut rule forces nonempty=true
    with pytest.raises(jsonschema.ValidationError):
        validator.validate(document)
