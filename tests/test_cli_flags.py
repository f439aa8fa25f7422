"""Every value-taking flag of every subcommand, given each value of one table
(and, for a flag that takes a list, a few lists).

The other flags sit at a small valid fixture.  Each run exits 0, 1, 2 or
3; stderr holds no traceback, no warning and no numpy scalar repr; a
refusal is one line; the run exits 1, a usage error that writes no file,
exactly where the flag's own rule refuses the value; and that refusal
names the flag as it was typed.  Size and count flags meet only values
that their rule refuses, or small lists, so no run allocates or loops at
scale.
"""

import math

import numpy as np
import pytest

from uws import cli
from uws.ensemble import ModelWeights, save_weights

VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-320", "1e308", str(10**30), str(2**64), "", "x"]
#: Further values for a flag that takes a comma-separated list.
LISTS = ["1,2", "1,nan", "1,", "0.25,0.25,0.5", "2,2"]
LIST_FLAGS = {"--t-grid", "--spectrum", "--weights", "--exclude-layers"}


def _ints_from(low):
    def refused(text):
        try:
            return not low <= int(text) < 2**63
        except ValueError:
            return True
    return refused


def _reals(accept):
    def refused(text):
        try:
            value = float(text)
        except ValueError:
            return True
        return not (math.isfinite(value) and accept(value))
    return refused


COUNT, INDEX = _ints_from(1), _ints_from(0)
POSITIVE, NONNEGATIVE = _reals(lambda v: v > 0), _reals(lambda v: v >= 0)
LEVEL, TAU = _reals(lambda v: 0 < v < 1), _reals(lambda v: 0 < v <= 1)


def ANY(text):
    """A name or a path, which has no rule of its own."""
    return False


def _one_of(*choices):
    return lambda text: text not in choices


def _each(refused):
    return lambda text: any(refused(part) for part in text.split(","))


def _grid(text):
    """theory.task_counts' rule: counts, none of them repeated."""
    return _each(COUNT)(text) or len({int(t) for t in text.split(",")}) < text.count(",") + 1


def _weights(text):
    """merge_weights' rule for the fixture's three models."""
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError:
        return True
    return (len(weights) != 3 or not all(math.isfinite(w) and w >= 0 for w in weights)
            or abs(sum(weights) - 1) > 1e-8)


# every value-taking flag: (subcommand, flag) -> whether its rule refuses a value
RULES = {
    **{("extract", f): ANY for f in ("--models", "--out", "--report", "--exclude-layers")},
    ("extract", "--tau"): TAU,
    ("extract", "--eigen-floor"): NONNEGATIVE,
    ("extract", "--fixed-k"): COUNT,
    ("extract", "--order"): _one_of("2", "3"),
    ("extract", "--center"): _one_of("feature", "global"),
    ("extract", "--arch-id"): lambda text: text == "",
    **{("scree", f): ANY for f in ("--subspace", "--out")},
    ("scree", "--top"): COUNT,
    **{("project", f): ANY for f in ("--subspace", "--model", "--out")},
    **{("reconstruct", f): ANY for f in ("--subspace", "--coeffs", "--out")},
    **{("merge", f): ANY for f in ("--subspace", "--models", "--out")},
    ("merge", "--weights"): _weights,
    **{("adapt", f): ANY for f in ("--subspace", "--layer", "--x", "--y", "--out", "--report")},
    ("adapt", "--method"): _one_of("closed-form", "gd"),
    ("adapt", "--lr"): POSITIVE,
    ("adapt", "--epochs"): COUNT,
    ("adapt", "--ridge"): NONNEGATIVE,
    **{("memcalc", f): COUNT for f in ("--t", "--per-model")},
    **{("memcalc", f): INDEX for f in ("--basis", "--coeffs", "--mean")},
    **{("theory converge", f): COUNT for f in ("--d", "--k", "--trials")},
    ("theory converge", "--t-grid"): _grid,
    **{("theory converge", f): POSITIVE for f in ("--b", "--c1", "--c2")},
    ("theory converge", "--eta"): NONNEGATIVE,
    ("theory converge", "--spectrum"): _each(NONNEGATIVE),
    ("theory converge", "--delta"): LEVEL,
    ("theory converge", "--seed"): INDEX,
    ("theory converge", "--norm-mode"): _one_of("gaussian", "constant"),
    ("theory converge", "--perturbation"): _one_of("isotropic", "radial"),
    ("theory converge", "--out"): ANY,
    **{("theory bounds", f): POSITIVE for f in ("--b", "--gamma-k", "--c1", "--c2")},
    ("theory bounds", "--delta"): LEVEL,
    ("theory bounds", "--t"): COUNT,
    **{("theory bounds", f): NONNEGATIVE for f in ("--eta-bar", "--eta2-bar")},
    **{("theory dk-check", f): COUNT for f in ("--d", "--k", "--trials")},
    ("theory dk-check", "--perturb"): POSITIVE,
    ("theory dk-check", "--seed"): INDEX,
    **{(c, "--format"): _one_of("csv", "text")
       for c in ("extract", "scree", "adapt", "theory converge")},
}


def _value_flags(parser, prefix=""):
    """(subcommand, flag) of every option that takes a value, from the parser itself."""
    for action in parser._actions:
        if action.choices and isinstance(action.choices, dict):  # subcommands
            for name, sub in action.choices.items():
                yield from _value_flags(sub, f"{prefix} {name}".strip())
        elif action.option_strings and action.nargs != 0:
            yield prefix, action.option_strings[0]


def test_the_table_names_every_flag_that_takes_a_value():
    assert sorted(_value_flags(cli.build_parser())) == sorted(RULES)


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """Three small models, their subspace (layer b), coefficients and adapt data."""
    root = tmp_path_factory.mktemp("fixture")
    rng = np.random.default_rng(0)
    for i in range(3):
        save_weights(ModelWeights(f"m{i}", {n: rng.standard_normal((2, 4)) for n in "abc"}),
                     root / f"m{i}.uws")
    np.savetxt(root / "x.csv", rng.standard_normal((6, 4)), delimiter=",")
    np.savetxt(root / "y.csv", rng.standard_normal((6, 2)), delimiter=",")
    models, space = str(root / "m*.uws"), str(root / "s.uws")
    assert cli.main(["extract", "--models", models, "--out", space,
                     "--report", str(root / "r.csv")]) == 0
    assert cli.main(["project", "--subspace", space, "--model", str(root / "m0.uws"),
                     "--out", str(root / "c.uws")]) == 0
    return dict(models=models, space=space, model=str(root / "m0.uws"),
                coeffs=str(root / "c.uws"), x=str(root / "x.csv"), y=str(root / "y.csv"))


def _fixture_argv(command, f):
    """Each subcommand's valid flags; outputs are relative, in the run's own directory."""
    return {
        "extract": {"--models": f["models"], "--out": "s.uws", "--report": "r.csv"},
        "scree": {"--subspace": f["space"], "--out": "t.csv"},
        "project": {"--subspace": f["space"], "--model": f["model"], "--out": "c.uws"},
        "reconstruct": {"--subspace": f["space"], "--coeffs": f["coeffs"], "--out": "w.uws"},
        "merge": {"--subspace": f["space"], "--models": f["models"], "--out": "w.uws"},
        "adapt": {"--subspace": f["space"], "--layer": "b", "--x": f["x"], "--y": f["y"],
                  "--method": "gd", "--epochs": "3", "--out": "c.uws", "--report": "f.csv"},
        "memcalc": {"--t": "5", "--per-model": "10", "--basis": "2", "--coeffs": "1"},
        "theory converge": {"--d": "3", "--k": "1", "--t-grid": "2", "--trials": "1",
                            "--out": "o.csv"},
        "theory bounds": {"--b": "1", "--delta": "0.5", "--t": "4", "--eta-bar": "0",
                          "--eta2-bar": "0"},
        "theory dk-check": {"--d": "3", "--k": "1", "--perturb": "0.1", "--trials": "1"},
    }[command]


@pytest.mark.parametrize("command, flag", list(RULES), ids=[c + f for c, f in RULES])
def test_every_value_of_a_flag_exits_with_its_documented_code(command, flag, fixture_files,
                                                              tmp_path, monkeypatch, capsys):
    for i, value in enumerate(VALUES + (LISTS if flag in LIST_FLAGS else [])):
        (tmp_path / str(i)).mkdir()
        monkeypatch.chdir(tmp_path / str(i))  # outputs named by the value land here
        flags = {**_fixture_argv(command, fixture_files), flag: value}
        # --flag=VALUE, so that a value such as -inf reaches the flag's own rule
        code = cli.main(command.split() + [f"{name}={text}" for name, text in flags.items()])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), value
        assert not any(word in err for word in ("Traceback", "Warning", "np.float64(")), value
        assert err.count("\n") == (code != 0) and err.endswith("\n" if code else ""), (value, err)
        assert (code == 1) == RULES[command, flag](value), (value, err)
        assert code != 1 or flag in err, (value, err)  # a refusal names the flag as typed
        assert code != 1 or not any((tmp_path / str(i)).iterdir()), value  # wrote nothing
