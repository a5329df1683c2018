"""Command-line interface: exit codes, output shapes, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridstore import (
    NotTwoPlayer, SweepSpec, scenario_from_dict, sweep_emergency_price, write_sweep_csv,
)
from gridstore.cli import run
from gridstore import solver

CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "defaults.json")
DATA = Path(__file__).resolve().parent / "data"


def numeric_leaves(node, prefix: str = ""):
    """Dotted override paths of every number in a parsed config."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)):
            yield prefix
        return
    for key, child in items:
        yield from numeric_leaves(child, f"{prefix}.{key}" if prefix else str(key))


CONFIG_LEAVES = tuple(numeric_leaves(json.loads(Path(CONFIG).read_text())))


def config_copy(tmp_path, **grid_overrides) -> str:
    data = json.loads(Path(CONFIG).read_text())
    data["grid"].update(grid_overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_no_subcommand_is_usage_error():
    assert run([]) == 2


def test_help_exits_clean(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_validate_ok(capsys):
    assert run(["validate", "--config", CONFIG]) == 0
    out = capsys.readouterr().out
    assert "scenario valid" in out
    assert "IncentiveViolation" in out  # listed as a passing check


def test_validate_reports_broken_incentive(tmp_path, capsys):
    bad = config_copy(tmp_path, rho_c=9.0)
    assert run(["validate", "--config", bad]) == 3
    out = capsys.readouterr().out
    assert "scenario invalid" in out
    assert "IncentiveViolation" in out


def test_solve_cgt_prints_interior_equilibrium(capsys):
    assert run(["solve-cgt", "--config", CONFIG]) == 0
    out = capsys.readouterr().out
    assert out.count("0.874811") == 2
    assert "BNE4" in out
    assert "4a" in out


def test_enumerate_lists_all_four_candidates(capsys):
    assert run(["enumerate", "--config", CONFIG]) == 0
    out = capsys.readouterr().out
    for label in ("BNE1", "BNE2", "BNE3", "BNE4"):
        assert label in out


def test_enumerate_gives_an_out_of_range_candidate_no_condition(capsys):
    # The interior candidate (-16, -16) is no BNE4: each best response to
    # a negative fraction stores everything.
    overrides = ("grid.rho_c=30", "grid.l_c=160", "microgrids.0.q=40", "microgrids.1.q=40")
    argv = ["enumerate", "--config", CONFIG]
    for o in overrides:
        argv += ["--override", o]
    assert run(argv) == 0
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["BNE1"][-2:] == ["yes", "1d"]
    assert rows["BNE4"][1:3] == ["-16.000000", "-16.000000"]
    assert rows["BNE4"][-2:] == ["-", "-"]


def test_solve_pt_converges_on_benchmark(capsys):
    assert run(["solve-pt", "--config", CONFIG]) == 0
    out = capsys.readouterr().out
    assert "alpha_1            0.700822" in out
    assert "converged          true" in out
    assert "PT-Iterated" in out


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["validate"], "validate"),
        (["enumerate"], "enumerate"),
        (["solve-pt"], "solve-pt"),
        # (1, 1) is the default start, so it must not change a byte.
        (["solve-pt", "--start", "1,1"], "solve-pt"),
        (["solve-cgt"], "solve-cgt"),
    ],
)
def test_default_config_output_bytes_are_pinned(argv, pinned, capsys):
    """``tests/data/<command>.txt`` holds the exact stdout of
    ``gridstore <command> --config configs/defaults.json``; the cli-cold
    benchmark hashes this output, so a reworded row must show up here."""
    assert run(argv + ["--config", CONFIG]) == 0
    assert capsys.readouterr().out == (DATA / f"{pinned}.txt").read_text()


def test_solve_pt_offers_only_scenario_and_start_flags(capsys):
    assert run(["solve-pt", "--help"]) == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--override", "--start"}


# Both references at 13.357 put the symmetric equilibrium in its flip
# band (best-response slope about -0.986; see the solver test of the
# same input).
CAP_BAND_ARGV = [
    "solve-pt",
    "--config",
    CONFIG,
    "--override",
    "prospect.0.r=13.357",
    "--override",
    "prospect.1.r=13.357",
]


def test_solve_pt_converges_in_the_flip_band(capsys):
    assert run(CAP_BAND_ARGV) == 0
    out = capsys.readouterr().out
    assert "converged          true" in out
    assert int(re.search(r"^iterations +(\d+)$", out, re.M).group(1)) < 30


def test_solve_pt_round_cap_is_exit_four(capsys, monkeypatch):
    # The round cap is a guard; with one round allowed the iteration
    # cannot settle, and a solve that does not settle exits 4.
    monkeypatch.setattr(solver, "MAX_ROUNDS", 1)
    assert run(CAP_BAND_ARGV) == 4
    captured = capsys.readouterr()
    assert "converged          false" in captured.out
    assert captured.err == "error: no fixed point within 1 rounds\n"


def test_missing_config_file():
    assert run(["validate", "--config", "/nonexistent/scenario.json"]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["validate", "--config", str(path)]) == 2


def test_unknown_override_path_rejected(tmp_path):
    assert run(["validate", "--config", CONFIG, "--override", "grid.voltage=3"]) == 2
    assert run(["validate", "--config", CONFIG, "--override", "grid.rho_c"]) == 2


def test_override_matches_edited_config(tmp_path, capsys):
    assert run(["solve-cgt", "--config", CONFIG, "--override", "grid.rho_c=12"]) == 0
    via_override = capsys.readouterr().out
    edited = config_copy(tmp_path, rho_c=12.0)
    assert run(["solve-cgt", "--config", edited]) == 0
    assert capsys.readouterr().out == via_override


def test_override_reaches_prospect_entries(capsys):
    code = run(
        [
            "solve-pt",
            "--config",
            CONFIG,
            "--override",
            "prospect.0.r=25",
            "--override",
            "prospect.1.r=25",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha_1            0.876" in out
    assert "alpha_2            0.876" in out


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    args = [
        "sweep",
        "--config",
        CONFIG,
        "--param",
        "reference-point",
        "--from",
        "11",
        "--to",
        "12",
        "--step",
        "0.5",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(args + ["--out", str(first)]) == 0
    assert capsys.readouterr().out.strip() == str(first)
    assert run(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0].startswith("sweep_param,value,alpha_1")
    assert len(lines) == 1 + 1 + 3  # header, baseline, three grid points


def test_sweep_emergency_price_needs_values(tmp_path):
    code = run(
        [
            "sweep",
            "--config",
            CONFIG,
            "--param",
            "emergency-price",
            "--from",
            "11",
            "--to",
            "12",
            "--step",
            "0.5",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


def test_sweep_reference_point_rejects_values_flag(tmp_path):
    code = run(
        [
            "sweep",
            "--config",
            CONFIG,
            "--param",
            "reference-point",
            "--from",
            "11",
            "--to",
            "12",
            "--step",
            "0.5",
            "--values",
            "10.2",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


def test_emergency_price_sweep_validates_the_swept_prices_not_the_configs(tmp_path, capsys):
    # The config's own rho_c = 5 breaks the incentive condition, but an
    # emergency-price sweep replaces it with each swept price.
    override = ["--config", CONFIG, "--override", "grid.rho_c=5"]
    grid = ["--from", "11.5", "--to", "12", "--step", "0.5"]
    out = tmp_path / "prices.csv"
    args = ["sweep", *override, "--param", "emergency-price", "--values", "11,12", *grid]
    assert run([*args, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    data = json.loads(Path(CONFIG).read_text())
    data["grid"]["rho_c"] = 5
    spec = SweepSpec(scenario_from_dict(data), "emergency_price", (11.0, 12.0), (11.5, 12.0))
    rows = sweep_emergency_price(spec)
    assert len(rows) == 4
    assert out.read_bytes() == write_sweep_csv(rows, tmp_path / "library.csv").read_bytes()
    # A reference-point sweep solves the config's own price, so it is refused.
    args = ["sweep", *override, "--param", "reference-point", *grid]
    assert run([*args, "--out", str(tmp_path / "refs.csv")]) == 3
    assert "IncentiveViolation" in capsys.readouterr().err
    assert not (tmp_path / "refs.csv").exists()


def test_find_price_writes_star_column(tmp_path, capsys):
    out = tmp_path / "stars.csv"
    code = run(
        [
            "find-price",
            "--config",
            CONFIG,
            "--from",
            "1",
            "--to",
            "1.5",
            "--step",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sweep_param,value,rho_c_star,")
    assert lines[1].startswith("required_emergency_price:R=11.5,1,11.28,")
    assert lines[2].startswith("required_emergency_price:R=11.5,1.5,11.34,")


def test_find_price_refuses_differing_config_references(tmp_path, capsys):
    # Without --reference no framed player's reference may stand in for
    # the other's, so references that differ are refused.
    out = tmp_path / "x.csv"
    argv = ["find-price", "--config", CONFIG, "--override", "prospect.1.r=14"]
    argv += ["--from", "1", "--to", "2", "--out", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: framed players' reference points differ (11.5, 14); pass one reference\n"
    )
    assert not out.exists()

    assert run(argv + ["--reference", "11.5"]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    lines = out.read_text().splitlines()
    assert lines[1].startswith("required_emergency_price:R=11.5,1,11.28,")

    # A non-finite config reference fails validation rather than differing.
    out.unlink()
    argv[argv.index("prospect.1.r=14")] = "prospect.1.r=NaN"
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        "error: invalid scenario (BadProspectParams: prospect[1].r = nan must be finite)\n"
    )
    assert not out.exists()


def test_find_price_unreachable_ceiling_is_exit_four(tmp_path, capsys):
    code = run(
        [
            "find-price",
            "--config",
            CONFIG,
            "--from",
            "1",
            "--to",
            "1",
            "--step",
            "0.5",
            "--price-max",
            "10.5",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 4
    assert capsys.readouterr().err == (
        "error: total stored never reaches the critical load for loss aversion 1 "
        "with emergency price up to 10.5\n"
    )
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("price_max", ["11.5", "12"])
def test_find_price_window_under_a_ceiling_that_does_not_cover(price_max, tmp_path, capsys):
    # 11.01..11.25 cover and 11.26..12.08 do not: the top cent lies in
    # the gap, but the search reaches the window before it.
    out = tmp_path / "stars.csv"
    argv = ["find-price", "--config", CONFIG, "--reference", "13.251545058135042"]
    argv += ["--from", "2.4340982337820005", "--to", "2.4340982337820005"]
    argv += ["--price-max", price_max, "--out", str(out)]
    assert run(argv) == 0
    assert capsys.readouterr().out.strip() == str(out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("required_emergency_price:R=13.2515,2.43409823,11.01,")


def test_find_price_under_a_ceiling_past_the_cent_index_range(tmp_path, capsys):
    # 1e307 / PRICE_STEP overflows a float; the search still lands on 11.28.
    out = tmp_path / "stars.csv"
    argv = ["find-price", "--config", CONFIG, "--from", "1", "--to", "1"]
    assert run(argv + ["--price-max", "1e307", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    assert out.read_text().splitlines()[1].startswith("required_emergency_price:R=11.5,1,11.28,")


def test_find_price_output_is_the_published_coverage_csv(tmp_path):
    # The default scenario over the battery's loss-aversion grid writes
    # the battery's coverage_price_R11.5.csv byte for byte.
    out = tmp_path / "stars.csv"
    argv = ["find-price", "--config", CONFIG, "--from", "1", "--to", "4", "--step", "0.5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv + ["--out", str(out)]) == 0
    pinned = json.loads((DATA / "battery_sha256.json").read_text())["sha256"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned["coverage_price_R11.5.csv"]


def test_find_price_round_cap_is_exit_four(tmp_path, capsys, monkeypatch):
    # rho/theta = 1e16 with one round allowed: the solve at the cent below
    # the covering price the search lands on is still moving at the round
    # cap, so it decides nothing.
    monkeypatch.setattr(solver, "MAX_ROUNDS", 1)
    out = tmp_path / "x.csv"
    argv = ["find-price", "--config", CONFIG, "--override", "grid.rho=1e-3"]
    argv += ["--override", "grid.theta=1e-19", "--override", "grid.rho_c=2e16"]
    argv += ["--from", "1", "--to", "1", "--price-max", "4e16", "--out", str(out)]
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the equilibrium for loss aversion 1 at emergency price 1.11110532047205e+16 "
        "is still moving at the round cap\n"
    )
    assert not out.exists()


def test_three_microgrids_are_refused_at_load(tmp_path, capsys):
    data = json.loads(Path(CONFIG).read_text())
    data["microgrids"].append(dict(data["microgrids"][0]))
    data["prospect"].append(dict(data["prospect"][0]))
    with pytest.raises(NotTwoPlayer):
        scenario_from_dict(data)

    path = tmp_path / "three.json"
    path.write_text(json.dumps(data))
    for command in ("validate", "enumerate", "solve-pt"):
        assert run([command, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need exactly 2 players" in captured.err


@pytest.mark.parametrize("entries", [1, 3])
def test_prospect_count_other_than_two_is_refused_at_load(entries, tmp_path, capsys):
    # A lone entry would reach the solver and fail there with IndexError;
    # a third would be ignored.
    data = json.loads(Path(CONFIG).read_text())
    data["prospect"] = [dict(data["prospect"][0]) for _ in range(entries)]
    with pytest.raises(NotTwoPlayer, match=f"need 2 prospect entries, scenario has {entries}"):
        scenario_from_dict(data)

    path = tmp_path / "prospects.json"
    path.write_text(json.dumps(data))
    for command in ("validate", "enumerate", "solve-pt"):
        assert run([command, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: need 2 prospect entries, scenario has {entries}\n"
        )


@pytest.mark.parametrize("player", [0, 1])
@pytest.mark.parametrize("command", ["enumerate", "solve-cgt"])
def test_zero_surplus_closed_form_commands(command, player, capsys):
    # A player without surplus has no interior best response, so only the
    # candidates that do not need one are listed.
    code = run([command, "--config", CONFIG, "--override", f"microgrids.{player}.q=0"])
    out = capsys.readouterr().out
    assert code == 0
    assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE), out
    one_sided = "BNE2" if player == 0 else "BNE3"
    assert one_sided in out
    assert "BNE4" not in out


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("path", CONFIG_LEAVES)
def test_non_finite_config_value_is_rejected(path, value, capsys):
    code = run(["solve-pt", "--config", CONFIG, "--override", f"{path}={value}"])
    out = capsys.readouterr().out
    if code == 0:
        assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE), out
    assert code in (2, 3), f"exit {code}:\n{out}"


@pytest.mark.parametrize("player", [0, 1])
@pytest.mark.parametrize("command", ["enumerate", "solve-cgt"])
@pytest.mark.parametrize("tiny, theta", [("5e-324", None), ("5e-324", "1"), ("1.2e-306", "1")])
def test_tiny_surplus_lists_what_zero_surplus_lists(tiny, theta, command, player, capsys):
    # At 5e-324, q * theta * rho_c underflows to 0 at the default theta and
    # lc / q overflows at theta = 1, so the player counts as having no
    # surplus.  At 1.2e-306 and theta = 1 the coefficients are finite but
    # the candidates built from them overflow, and are left out.
    def rows(q: str) -> tuple[int, list[list[str]]]:
        argv = [command, "--config", CONFIG, "--override", f"microgrids.{player}.q={q}"]
        if theta is not None:
            argv += ["--override", f"grid.theta={theta}"]
        code = run(argv)
        out = capsys.readouterr().out
        assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE), out
        # Label and profile columns; solve-cgt's utilities differ from
        # those at zero surplus in the last place.
        return code, [line.split()[:3] for line in out.splitlines()[1:]]

    code, listed = rows(tiny)
    assert (code, listed) == rows("0")
    assert code == 0
    labels = [row[0] for row in listed]
    one_sided = "BNE2" if player == 0 else "BNE3"
    if command == "enumerate":
        assert labels == ["BNE1", one_sided]
    else:
        assert labels == ([one_sided] if theta is None else ["BNE1"])


# Boundary values for every numeric config leaf, written as override
# text: zeros, the smallest subnormal, values near the float range
# limits, non-finite values and wrong JSON types.
BOUNDARY_VALUES = (
    "0",
    "-0.0",
    "5e-324",
    "1e-300",
    "1e300",
    "-1e300",
    "1.7976931348623157e308",
    "-1.7976931348623157e308",
    "Infinity",
    "-Infinity",
    "NaN",
    '"x"',
    "null",
    "[]",
    "true",
    "-1",
)


@pytest.mark.parametrize("command", ["validate", "enumerate", "solve-cgt", "solve-pt"])
@pytest.mark.parametrize("value", BOUNDARY_VALUES)
@pytest.mark.parametrize("path", CONFIG_LEAVES)
def test_boundary_config_value_has_a_documented_exit(path, value, command, capsys):
    code = run([command, "--config", CONFIG, "--override", f"{path}={value}"])
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 4), f"exit {code}:\n{out}"
    if code == 0:
        assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE), out


# Positive boundary values in increasing order ("true" reads as 1.0), and
# every finite one.
_LADDER = ("5e-324", "1e-300", "true", "1e300", "1.7976931348623157e308")
_FINITE = tuple(
    v for v in BOUNDARY_VALUES if v not in ("Infinity", "-Infinity", "NaN", '"x"', "null", "[]")
)


@st.composite
def _valid_boundary_config(draw) -> tuple[str, ...]:
    """Every leaf a boundary value, picked so that validation passes.

    Ladder indices keep rho < rho_c (theta is 1), q <= q_max < l_c,
    lambda >= 1 and each beta in (0, 1].
    """

    def rung(lo: int, hi: int) -> int:
        # Listed from the top, so the draws lean toward the large values
        # where products overflow.
        return draw(st.sampled_from(range(hi, lo - 1, -1)))

    rho_c, l_c = rung(1, 4), rung(1, 4)
    values = {
        "grid.rho": _LADDER[rung(0, rho_c - 1)],
        "grid.rho_c": _LADDER[rho_c],
        "grid.theta": "true",
        "grid.l_c": _LADDER[l_c],
    }
    for i in (0, 1):
        q_max = rung(0, l_c - 1)
        values[f"microgrids.{i}.q_max"] = _LADDER[q_max]
        values[f"microgrids.{i}.q"] = draw(st.sampled_from(_LADDER[q_max::-1] + ("0", "-0.0")))
        values[f"prospect.{i}.r"] = draw(st.sampled_from(_FINITE))
        values[f"prospect.{i}.lambda"] = draw(st.sampled_from(_LADDER[2:]))
        values[f"prospect.{i}.beta_plus"] = draw(st.sampled_from(_LADDER[:3]))
        values[f"prospect.{i}.beta_minus"] = draw(st.sampled_from(_LADDER[:3]))
    return tuple(values[path] for path in CONFIG_LEAVES)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=st.one_of(
        # Any boundary value at every leaf mostly stops at validation, so
        # half the draws are valid configs where the extremes meet in the
        # solvers.
        st.tuples(*(st.sampled_from(BOUNDARY_VALUES) for _ in CONFIG_LEAVES)),
        _valid_boundary_config(),
    ),
)
def test_boundary_whole_config_has_a_documented_exit(values):
    overrides = [f"--override={path}={value}" for path, value in zip(CONFIG_LEAVES, values)]
    for command in ("validate", "enumerate", "solve-cgt", "solve-pt"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run([command, "--config", CONFIG] + overrides)
        assert code in (0, 2, 3, 4), f"{command} exit {code}:\n{out.getvalue()}"
        if code == 0:
            assert not re.search(r"\b(inf|nan)\b", out.getvalue(), re.IGNORECASE), out.getvalue()


_SWEEP = ["sweep", "--config", CONFIG, "--param", "reference-point"]
_FIND_PRICE = ["find-price", "--config", CONFIG]
# Seven leaves at once, sized so that the rational utility overflows in
# plain float arithmetic, where no NumPy error state can see it.
_HUGE = [
    f"--override={path}={value}"
    for path, value in (
        ("grid.l_c", "1e300"),
        ("microgrids.0.q", "1e299"),
        ("microgrids.0.q_max", "1e299"),
        ("microgrids.1.q", "1e299"),
        ("microgrids.1.q_max", "1e299"),
        ("grid.rho_c", "1e300"),
        ("grid.theta", "1"),
    )
]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (_FIND_PRICE + ["--price-max", "5"], 2),
        (_FIND_PRICE + ["--price-max", "nan"], 2),
        (_FIND_PRICE + ["--price-max", "inf"], 2),
        (_FIND_PRICE + ["--from", "nan"], 2),
        (_FIND_PRICE + ["--step", "nan"], 2),
        (_FIND_PRICE + ["--to", "inf"], 2),
        (_FIND_PRICE + ["--reference", "nan"], 3),
        (_FIND_PRICE + ["--reference", "inf"], 3),
        (_FIND_PRICE + ["--from", "0.5", "--to", "0.5"], 3),
        (_SWEEP + ["--from", "nan", "--to", "12", "--step", "0.5"], 2),
        (_SWEEP + ["--from", "11", "--to", "12", "--step", "nan"], 2),
        (_SWEEP + ["--from", "11", "--to", "12", "--step", "1e-300"], 2),
        (["sweep", "--config", CONFIG, "--param", "emergency-price", "--values", "11,nan,12",
          "--from", "11", "--to", "12", "--step", "0.5"], 2),
        (["solve-pt", "--config", CONFIG, "--start", "nan,nan"], 2),
        (["solve-pt", "--config", CONFIG, "--start", "2,2"], 2),
        (["solve-pt", "--config", CONFIG, "--start", "0.5,-0.1"], 2),
        # Finite values that pass validation but overflow a utility.
        (["solve-pt", "--config", CONFIG, "--override", "grid.rho_c=1e300"], 4),
        (["solve-pt", "--config", CONFIG, "--override", "prospect.1.r=-1e300"], 4),
        (["solve-pt", "--config", CONFIG, "--override", "prospect.0.lambda=1e308",
          "--override", "prospect.0.r=100"], 4),
        (["solve-cgt", "--config", CONFIG, "--override", "grid.rho_c=1.7976931348623157e308"], 4),
        (["solve-cgt", "--config", CONFIG] + _HUGE, 4),
    ],
    ids=lambda v: " ".join(v[3:]) if isinstance(v, list) else None,
)
def test_bad_flag_value_is_a_one_line_error(argv, expected, tmp_path, capsys):
    if argv[0] in ("sweep", "find-price"):
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == expected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, player",
    [
        (_SWEEP + ["--from", "11", "--to", "12", "--step", "0.5", "--override", "prospect.0=null"], 0),
        (_SWEEP + ["--from", "11", "--to", "12", "--step", "0.5", "--override", "prospect.1=null"], 1),
        (
            ["sweep", "--config", CONFIG, "--param", "emergency-price", "--values", "11.6"]
            + ["--from", "11", "--to", "12", "--step", "0.5", "--override", "prospect.1=null"],
            1,
        ),
        (_FIND_PRICE + ["--override", "prospect.0=null", "--override", "prospect.1=null"], 0),
    ],
    ids=["sweep-p0", "sweep-p1", "price-sweep-p1", "find-price-both"],
)
def test_missing_prospect_params_name_the_player(argv, player, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: player {player} has no prospect parameters\n"
    assert not out.exists()
