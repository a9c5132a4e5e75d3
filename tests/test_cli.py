"""Command-line interface: config handling, artifacts, exit codes."""

import argparse
import ast
import configparser
import csv
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glefield
from glefield import cli, spectral
from glefield.cli import _write_columns, _write_field_csv, load_config, main
from glefield.cm_kernel import KernelMeasure
from glefield.mode_sampler import _Markov
from glefield.regularity import theoretical_field_variogram
from glefield.spectral import Mode


def read(path):
    return path.read_bytes()


def load_json(path):
    return json.loads(path.read_text())


def rehash(config_texts):
    # independent reconstruction of the canonical serialization
    lines = []
    for section in sorted(config_texts):
        lines.append(f"[{section}]")
        for key in sorted(config_texts[section]):
            lines.append(f"{key} = {config_texts[section][key]}")
    text = "\n".join(lines) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_missing_config_file(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code = main(["kernel", "--config", str(tmp_path / "nope.ini"), "--out", str(out)])
    assert code == 2
    assert f"config file not found: {tmp_path / 'nope.ini'}" in capsys.readouterr().err


def test_unknown_key_is_line_anchored(tmp_path, capsys):
    # keys are case-folded, so a mixed-case key is reported lowercased;
    # method, the sampling law's removed key, is unknown like any other
    cfg = tmp_path / "bad.ini"
    for section, known, key in (("kernel", "kernel = expsum", "bogus_key"),
                                ("kernel", "kernel = expsum", "Bogus_Key"),
                                ("sampler", "seed = 3", "method")):
        cfg.write_text(f"[{section}]\n{known}\n{key} = ce\n")
        code = main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "k.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}:3: unknown key {key.lower()!r} in [{section}]" in err
        assert not list(tmp_path.glob("k.csv*"))


def test_unknown_section_is_line_anchored(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[kernel]\nkernel = expsum\n\n[wavelets]\nfoo = 1\n")
    code = main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "k.csv")])
    assert code == 2
    assert f"{cfg}:4: unknown section [wavelets]" in capsys.readouterr().err


def test_default_section_is_an_unknown_section(tmp_path, capsys):
    # configparser would merge [DEFAULT] into every section: alone it would
    # run at seed 0, beside [sampler] it would set that section's seed
    cfg = tmp_path / "d.ini"
    out = tmp_path / "mode.csv"
    for text, line in (("[DEFAULT]\nseed = 3\n", 1),
                       ("[sampler]\nn = 64\n[DEFAULT]\nseed = 3\n", 3)):
        cfg.write_text(text)
        code = main(["sample-mode", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"{cfg}:{line}: unknown section [DEFAULT]" in capsys.readouterr().err
        assert not list(tmp_path.glob("mode.csv*"))


def test_untyped_value_is_line_anchored(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    for key in ("n", "N"):
        cfg.write_text(f"[sampler]\n{key} = many\n")
        code = main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "k.csv")])
        assert code == 2
        assert f"{cfg}:2: 'many' is not an integer" in capsys.readouterr().err


def test_explicit_rule_requires_values(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[weights]\nrule = explicit\n")
    code = main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "k.csv")])
    assert code == 2
    assert "rule = explicit needs weights.values" in capsys.readouterr().err


def test_readme_config_block_is_the_defaults(tmp_path):
    # the documented config names every schema key, each at its default, so
    # a renamed or added key cannot leave the README behind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "readme.ini"
    cfg.write_text(block)
    assert load_config(str(cfg)).canonical_text() == load_config(None).canonical_text()
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    named = {section: set(parser[section]) for section in parser.sections()}
    assert named == {section: set(keys) for section, keys in cli._SCHEMA.items()}


def _configparser_hash(text):
    """The config hash of configparser's reading of text, each value passed
    through the schema's canonical form; None where the reading fails."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"),
                                       default_section="\n")
    texts = {section: {key: cli._canon(spec[1], spec[0], "")[1] for key, spec in keys.items()}
             for section, keys in cli._SCHEMA.items()}
    try:
        parser.read_string(text)
        for section in parser.sections():
            known = texts[section]  # an unknown section fails here, keys or not
            for key, raw in parser.items(section):
                known[key] = cli._canon(cli._SCHEMA[section][key][1], raw, "")[1]
    except (configparser.Error, KeyError, cli.ConfigError):
        return None
    if texts["weights"]["rule"] == "explicit" and texts["weights"]["values"] == "[]":
        return None
    return rehash(texts)


def _test_config_texts():
    # every config text written as one literal in the test modules
    texts = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith("[") and "]\n" in node.value):
                texts.append(node.value)
    return texts


# config texts and the line each is rejected at (None: accepted)
_READER_CASES = [
    ("[sampler]\nn: 64\nseed : 3\ndynamics:heat\n", None),
    ("[sampler]\nn = 3 ;x\nseed = 4\t# y\n", None),
    ("[sampler]\nn = 3;x\n", 2),
    ("[sampler]\nN = 64\nSeed = 3\n[Tolerances]\n", 4),
    ("[sampler]\nN = 64\nSeed = 3\nDynamics = heat\n", None),
    ("[kernel]\natoms = [\n\n  # inside the value\n  [1.0, 1.0],\n   ; also\n\n  [2.0, 3.0]]\n"
     "kernel = expsum\n", None),
    ("[regularity]\nlags = 1, 2,\n    4, 8\n\n    16\nbootstrap = 9\n", None),
    ("[sampler]\n  n = 64\nseed = 3\n", None),
    ("[sampler]\n  n = 64\n    32\n", 2),
    ("  [sampler]\nn = 64\n", None),
    ("[sampler]\nn = 64\n  [kernel]\n", 2),
    ("# a comment\n\n[sampler] ; header comment\nn = 64\n", None),
    ("n = 64\n[sampler]\n", 1),
    ("\n# first\nn = 64\n", 3),
    ("[sampler]\nn = 64\nn = 32\n", 3),
    ("[sampler]\nN = 64\nn = 32\n", 3),
    ("[sampler]\nn = 64\n[kernel]\n[sampler]\nseed = 1\n", 4),
    ("[DEFAULT]\nseed = 3\n", 1),
    ("[sampler]\nn = 64\n[DEFAULT]\nseed = 3\n", 3),
    ("[ sampler ]\nn = 64\n", 1),
    ("[Kernel]\nkernel = expsum\n", 1),
    ("[kernel]\natoms = [\n  [1.0, 1.0]\n  ]\nbogus = 1\n", 5),
    ("[sampler]\ngarbage\n", 2),
    ("[sampler]\n= 3\n", 2),
    ("[sampler]\n: 3\n", 2),
    ("[sampler]\nn =\n", 2),
    ("[weights]\nvalues =\n", None),
    ("[weights]\nlam = 2.0\n\nrule = explicit\n", 4),
    ("[weights]\nrule = explicit\nvalues = [1.0,\n  0.5]\n", None),
]


def _reader_corpus():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return ([readme.split("```ini\n", 1)[1].split("```", 1)[0]] + _test_config_texts()
            + [text for text, _ in _READER_CASES])


def _read(tmp_path, text):
    """load_config's hash of text, or the ConfigError it raises."""
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    try:
        return load_config(str(cfg)).hash()
    except cli.ConfigError as exc:
        return exc


def test_reader_agrees_with_configparser(tmp_path):
    # every text configparser accepts reads to the same config, and every
    # text it rejects is rejected at a line; a header with text after its
    # bracket is the one deliberate difference (see the test below)
    corpus = _reader_corpus()
    assert len(corpus) > len(_READER_CASES) + 20
    anchor = re.compile(re.escape(str(tmp_path / "c.ini")) + r":[1-9][0-9]*: ")
    for text in corpus:
        expected, got = _configparser_hash(text), _read(tmp_path, text)
        if expected is None:
            assert isinstance(got, cli.ConfigError) and anchor.match(str(got)), (text, got)
        else:
            assert got == expected, text


@pytest.mark.parametrize("text, line", _READER_CASES)
def test_reader_anchors_each_error_at_its_line(tmp_path, text, line):
    got = _read(tmp_path, text)
    if line is None:
        assert isinstance(got, str), got
    else:
        assert str(got).startswith(f"{tmp_path / 'c.ini'}:{line}: "), got


@pytest.mark.parametrize("text, line", [
    ("[ sampler ]\nn = 64\n", 1),  # a padded name is not the section it pads
    ("[kernel]\natoms = [\n  [1.0, 1.0]\n  ]\nbogus = 1\n", 5),  # after a '[' continuation
    ("[sampler]\ngarbage\n", 2),  # a line with no delimiter
    ("[sampler]\n= 3\n", 2),  # a line with no key
], ids=["padded-header", "after-bracket-continuation", "no-delimiter", "no-key"])
def test_config_error_names_its_own_line(tmp_path, capsys, text, line):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "k.csv")]) == 2
    assert f"glefield: error: {cfg}:{line}: " in capsys.readouterr().err
    assert not list(tmp_path.glob("k.csv*"))


def test_header_with_trailing_text_is_rejected(tmp_path, capsys):
    # configparser read `[sampler] junk` as [sampler] without a word; a
    # header stands alone on its line (a comment may follow it)
    cfg = tmp_path / "junk.ini"
    cfg.write_text("[sampler]" + " junk\nn = 64\n")
    out = tmp_path / "mode.csv"
    assert main(["sample-mode", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:1: '[sampler] junk' is not a [section] header alone" in capsys.readouterr().err
    assert not list(tmp_path.glob("mode.csv*"))


def test_flags_shared_by_commands_share_one_default():
    # a flag's default is declared once, so hoelder's field oracle counts the
    # modes sample-field kept when neither is given --N
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    for flag in ("--N", "--k"):
        defaults = {name: parser.get_default(flag[2:]) for name, parser in sub.choices.items()
                    if any(flag in action.option_strings for action in parser._actions)}
        assert len(defaults) >= 2, flag
        assert set(defaults.values()) == {cli._FLAGS[flag]["default"]}, defaults


def test_bound_flags_carry_their_keys_help():
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    helps = {action.option_strings[0]: action.help
             for action in sub.choices["sample-field"]._actions}
    for flag in ("--dt", "--n", "--ensemble", "--seed", "--dynamics", "--tail-budget"):
        section, key = cli._FLAGS[flag]["binds"]
        assert helps[flag] == cli._SCHEMA[section][key][2]


def test_hoelder_default_oracle_counts_the_sampled_modes(tmp_path):
    field = tmp_path / "field.csv"
    assert main(["sample-field", "--nx", "3", "--n", "64", "--ensemble", "2",
                 "--out", str(field)]) == 0
    assert load_json(tmp_path / "field.csv.provenance.json")["N"] == 64
    cfg = tmp_path / "c.ini"
    cfg.write_text("[weights]\nrule = flat\n")
    out = tmp_path / "report.json"
    assert main(["hoelder", "--in", str(field), "--config", str(cfg), "--out", str(out)]) == 0
    report = load_json(out)
    kernel, basis, weights = cli._model(load_config(str(cfg)))
    oracle = theoretical_field_variogram(kernel, basis, weights, 64,
                                         np.arange(1, 4) * (math.pi / 4), report["lags"])
    assert report["oracle_values"] == oracle.values.tolist()


@pytest.mark.parametrize("config, argv, code, message", [
    (None, ["--dynamics", "heat", "--dt", "1e308", "--n", "8"], 2, "ends past the float range"),
    (None, ["--dt", "1e308"], 2, "ends past the float range"),
    ("[kernel]\natoms = [[1.0, 1e10]]\n", ["--dt", "1e300", "--n", "2"], 2, "too stiff for dt"),
    (None, ["--k", "10000", "--dt", "1e305", "--n", "3"], 0, ""),
], ids=["heat-times-overflow", "gle-times-overflow", "stiff-reach-overflow", "reach-overflow"])
def test_sample_mode_at_extreme_steps(tmp_path, capsys, config, argv, code, message):
    # a step whose times or whose 2 |A| dt leave the float range exits 0
    # with finite paths or 2 with a message, never 1 on an OverflowError
    out = tmp_path / "paths.csv"
    if config is not None:
        (tmp_path / "c.ini").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "c.ini")]
    assert main(["sample-mode", *argv, "--ensemble", "2", "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    if code == 0:
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (6, 3) and np.isfinite(rows).all()
        assert 0.0 < np.abs(rows[:, 2]).max() < 1e-3  # the mode's sd is 1e-4
    else:
        assert not list(tmp_path.glob("paths.csv*"))


def test_kernel_csv_and_sidecar(tmp_path):
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 257
    t0, v0 = lines[1].split(",")
    assert float(t0) == 0.0
    assert float(v0) == 1.0
    sidecar = load_json(tmp_path / "kernel.csv.provenance.json")
    assert sidecar["artifact"] == "kernel.csv"
    assert sidecar["command"] == "kernel"
    assert sidecar["version"]
    assert "rel_tol" in sidecar["tolerances"]
    assert sidecar["config_hash"] == rehash(sidecar["config"])
    assert sidecar["config_hash"] == load_config(None).hash()


def test_spectrum_spot_values(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--k", "2", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    omega, rho0, k_cos, k_sin = rows[0]
    assert omega == 0.0
    assert rho0 == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-12)
    assert k_cos == 1.0
    assert k_sin == 0.0


def test_sample_mode_is_deterministic(tmp_path):
    args = ["sample-mode", "--dt", "0.125", "--n", "64", "--ensemble", "4",
            "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)
    sidecar = load_json(tmp_path / "a.csv.provenance.json")
    assert sidecar["config"]["sampler"]["dynamics"] == "gle"
    assert "method" not in sidecar
    assert sidecar["seed"] == 9
    assert sidecar["route"] == "recursion"
    assert sidecar["clipped_mass"] == 0.0
    assert sidecar["embedding_length"] == 0


def test_sample_field_thread_count_is_immaterial(tmp_path):
    base = ["sample-field", "--N", "8", "--nx", "5", "--dt", "0.25", "--n", "32",
            "--ensemble", "2", "--seed", "3", "--tail-budget", "1.0"]
    a, b = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert main(base + ["--threads", "1", "--out", str(a)]) == 0
    assert main(base + ["--threads", "3", "--out", str(b)]) == 0
    assert read(a) == read(b)
    sidecar = load_json(tmp_path / "f1.csv.provenance.json")
    assert sidecar["N"] == 8
    assert sidecar["config"]["sampler"]["dynamics"] == "gle"
    assert "dynamics" not in sidecar
    assert sidecar["wellposedness"]["convergent"] is True
    assert sidecar["regularity_assumption"]["convergent"] is True
    assert 0.0 < sidecar["tail_bound"] < 1.0


def _refuse_constant(name):
    raise ValueError(f"sidecar holds {name}, which strict JSON has not")


@pytest.mark.parametrize("weights, n_modes, decay_power", [
    ("lam = 0.0", 8, None),                                        # a zero series
    ("rule = explicit\nvalues = " + ", ".join(["1.0"] * 19 + ["0.0"]), 20, None),
    ("rule = explicit\nvalues = " + ", ".join(["1.0"] * 64), 63, 2.0),
])
def test_sample_field_sidecar_is_strict_json(tmp_path, weights, n_modes, decay_power):
    # no Infinity where the terms have no decay power, and an Explicit list's
    # truncation bound is the listed terms past N: 64 unit weights cut at 63
    # leave the last term, 2/pi / 64^2, well inside the default budget
    cfg = tmp_path / "w.ini"
    cfg.write_text(f"[weights]\n{weights}\n")
    out = tmp_path / "f.csv"
    assert main(["sample-field", "--config", str(cfg), "--N", str(n_modes), "--nx", "3",
                 "--n", "32", "--ensemble", "2", "--out", str(out)]) == 0
    text = read(Path(f"{out}.provenance.json"))
    sidecar = json.loads(text, parse_constant=_refuse_constant)
    well = sidecar["wellposedness"]
    assert sorted(well) == ["convergent", "decay_power", "total"]
    assert well["convergent"] is True and well["decay_power"] == pytest.approx(decay_power)
    if n_modes == 63:
        assert sidecar["tail_bound"] == pytest.approx(2.0 / math.pi / 64**2, rel=1e-15)


def _csv_reference(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row]
                         for row in rows)
    return path.read_bytes()


def test_field_csv_bytes_match_csv_writer_with_repr(tmp_path):
    times = np.array([0.0, 0.1])
    xs = np.array([1e-05, 5e-324])
    values = np.array([[[-0.0, 1e-05], [1e16, 5e-324]], [[0.1, -1e16], [2.5, -5e-324]]])
    out = tmp_path / "f.csv"
    _write_field_csv(str(out), times, xs, values)
    rows = [(i, float(times[j]), float(xs[l]), float(values[i, j, l]))
            for i in range(2) for j in range(2) for l in range(2)]
    ref = _csv_reference(tmp_path / "ref.csv", ["path_id", "t", "x", "value"], rows)
    assert out.read_bytes() == ref
    assert b"-0.0\n" in ref and b",5e-324\n" in ref
    # the sample-mode layout: no x column, values of shape (m, n, 1)
    _write_field_csv(str(out), times, None, values[:, :, :1])
    rows = [(i, float(times[j]), float(values[i, j, 0])) for i in range(2) for j in range(2)]
    assert out.read_bytes() == _csv_reference(tmp_path / "ref.csv", ["path_id", "t", "value"], rows)
    # two-digit path ids, a step count that is no multiple of the writer's
    # group of time steps, and the edge values on both sides of each group
    # boundary, in both layouts
    edges = np.array([-0.0, 5e-324, 1e16, 1e-05])
    for xs in (np.array([1e-05, 5e-324]), None):
        width = 1 if xs is None else len(xs)
        steps = cli._GROUP_ROWS // width
        times = 0.1 * np.arange(2 * steps + 3)
        values = np.random.default_rng(width).standard_normal((11, len(times), width))
        for j in (0, steps - 1, steps, 2 * steps - 1, 2 * steps, len(times) - 1):
            values[:, j] = np.roll(edges, j)[:width]
        _write_field_csv(str(out), times, xs, values)
        cells = np.ndindex(values.shape)
        if xs is None:
            rows = [(i, float(times[j]), float(values[i, j, 0])) for i, j, _ in cells]
            header = ["path_id", "t", "value"]
        else:
            rows = [(i, float(times[j]), float(xs[l]), float(values[i, j, l]))
                    for i, j, l in cells]
            header = ["path_id", "t", "x", "value"]
        assert out.read_bytes() == _csv_reference(tmp_path / "ref.csv", header, rows)
    # the column tables (kernel, spectrum, variograms)
    cols = [np.array([-0.0, 5e-324, 1e16, 0.1]), np.array([0.1, 1e16, -5e-324, -0.0])]
    _write_columns(str(out), ["lag", "value"], cols)
    rows = [(float(a), float(b)) for a, b in zip(*cols)]
    assert out.read_bytes() == _csv_reference(tmp_path / "ref.csv", ["lag", "value"], rows)


def test_sample_field_gates_run_before_sampling(tmp_path, capsys):
    # an eta the regularity gate rejects must leave no field CSV behind
    cfg = tmp_path / "eta.ini"
    cfg.write_text("[assumption]\neta = 1.5\n")
    out = tmp_path / "f.csv"
    code = main(["sample-field", "--config", str(cfg), "--N", "4", "--nx", "3", "--n", "32",
                 "--ensemble", "2", "--tail-budget", "1.0", "--out", str(out)])
    assert code == 2
    assert "eta 1.5 must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "f.csv.provenance.json").exists()


def test_short_explicit_list_names_its_length(tmp_path, capsys):
    # the series gates need 10 terms; two explicit weights describe no field,
    # but verify checks each listed mode and takes them
    cfg = tmp_path / "two.ini"
    cfg.write_text("[weights]\nrule = explicit\nvalues = 1.0, 0.5\n")
    out = tmp_path / "f.csv"
    assert main(["sample-field", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "at least 10 terms; the explicit weights gave 2" in err
    assert not list(tmp_path.glob("f.csv*"))
    report = tmp_path / "v.json"
    assert main(["verify", "--config", str(cfg), "--k-list", "1,2", "--out", str(report)]) == 0


def test_sample_field_reads_dynamics_from_the_config(tmp_path):
    # the config key and the flag are one setting: same bytes, same record
    base = ["sample-field", "--N", "4", "--nx", "3", "--n", "32", "--ensemble", "2",
            "--tail-budget", "1.0"]
    cfg = tmp_path / "heat.ini"
    cfg.write_text("[sampler]\ndynamics = heat\n")
    by_flag, by_config, gle = (tmp_path / f"{n}.csv" for n in ("flag", "config", "gle"))
    assert main(base + ["--dynamics", "heat", "--out", str(by_flag)]) == 0
    assert main(base + ["--config", str(cfg), "--out", str(by_config)]) == 0
    assert main(base + ["--out", str(gle)]) == 0
    assert read(by_config) == read(by_flag) != read(gle)
    for path in (by_flag, by_config):
        sidecar = load_json(Path(f"{path}.provenance.json"))
        assert sidecar["config"]["sampler"]["dynamics"] == "heat"


def test_hoelder_field_oracle_is_gated(tmp_path, capsys):
    # weights whose variance series diverges describe no field, so they give
    # no oracle for one, on either axis
    field = tmp_path / "field.csv"
    assert main(["sample-field", "--N", "8", "--nx", "17", "--dt", "0.25", "--n", "64",
                 "--ensemble", "2", "--tail-budget", "1.0", "--out", str(field)]) == 0
    div = tmp_path / "div.ini"
    div.write_text("[weights]\nrule = power\ns = -0.25\n")
    assert main(["sample-field", "--config", str(div), "--out", str(tmp_path / "f.csv")]) == 2
    assert "variance series diverges" in capsys.readouterr().err
    out = tmp_path / "report.json"
    for axis in ("time", "space"):
        code = main(["hoelder", "--in", str(field), "--axis", axis, "--lags", "1,2,4,16",
                     "--config", str(div), "--N", "8", "--out", str(out)])
        assert code == 2
        assert "variance series diverges" in capsys.readouterr().err
        assert not out.exists()


def test_handlers_are_looked_up_when_the_parser_is_built(tmp_path, monkeypatch):
    # a wrapper rebound on the module (how the bench tracer sees a handler)
    # must be the one main runs
    calls = []
    for name in ("cmd_kernel", "cmd_sample_field"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name) or 0)
    assert main(["kernel", "--out", str(tmp_path / "k.csv")]) == 0
    assert main(["sample-field", "--out", str(tmp_path / "f.csv")]) == 0
    assert calls == ["cmd_kernel", "cmd_sample_field"]
    assert not list(tmp_path.iterdir())


def test_a_handler_rebound_after_the_parser_is_built_is_the_one_that_runs(tmp_path, monkeypatch):
    # main builds its parser once per process; a handler rebound on the
    # module after that (a tracing wrapper installed between runs) must
    # still be the one that runs, so the parser cannot hold the handlers
    assert main(["kernel", "--points", "4", "--out", str(tmp_path / "k.csv")]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_hoelder", lambda args, cfg: calls.append(args.infile) or 0)
    assert main(["hoelder", "--in", "no-such.csv"]) == 0
    assert calls == ["no-such.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["k.csv", "k.csv.provenance.json"]


def test_verify_report_structure(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--k-list", "1,2", "--out", str(out)]) == 0
    report = load_json(out)
    assert report["passed"] is True
    assert report["rel_tol_bar"] == 1e-6
    one, two = report["results"]
    assert one["k"] == 1 and one["omega_k"] is None
    assert one["rel_err"] <= 1e-6
    assert two["alpha_k"] == pytest.approx(4.0)
    assert two["omega_k"] == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert two["omega_k_sq_over_alpha_k"] == pytest.approx(0.75, abs=1e-9)
    assert two["inequality_min_slack"] >= 0.0
    # a zero-weight mode is checked at unit weight too: the identity is
    # linear in lambda^2, so its record carries the unit rel_err, not 0
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[weights]\nrule = explicit\nvalues = 1.0, 0.0\n")
    assert main(["verify", "--config", str(cfg), "--k-list", "1,2", "--out", str(out)]) == 0
    zero = load_json(out)["results"][1]
    assert zero["lambda_k"] == 0.0 and zero["integral"] == zero["expected"] == 0.0
    assert zero["rel_err"] == two["rel_err"] > 0.0


def test_verify_checks_tiny_weights_at_unit_weight(tmp_path):
    # lambda^2 = 1e-400 leaves the double range; checked at unit weight the
    # identity still fails a bar the quadrature cannot meet
    flat = tmp_path / "flat.ini"
    flat.write_text("[tolerances]\nverify_rel_tol = 1e-12\n")
    tiny = tmp_path / "tiny.ini"
    tiny.write_text("[weights]\nrule = explicit\nvalues = 1e-200, 1e-200\n"
                    "[tolerances]\nverify_rel_tol = 1e-12\n")
    reports = []
    for cfg in (flat, tiny):
        out = tmp_path / f"{cfg.stem}.json"
        assert main(["verify", "--config", str(cfg), "--k-list", "1,2", "--out", str(out)]) == 3
        reports.append(load_json(out))
    unit, small = reports
    assert small["passed"] is False
    for u, s in zip(unit["results"], small["results"]):
        assert s["lambda_k"] == 1e-200
        assert s["rel_err"] == u["rel_err"] > 1e-12


def test_verify_fails_unreachable_bar(tmp_path, capsys):
    cfg = tmp_path / "tight.ini"
    cfg.write_text("[tolerances]\nverify_rel_tol = 1e-15\n")
    out = tmp_path / "verify.json"
    code = main(["verify", "--config", str(cfg), "--k-list", "2", "--out", str(out)])
    assert code == 3
    assert load_json(out)["passed"] is False


def test_verify_fails_a_violated_inequality(tmp_path, monkeypatch):
    # with alpha*K_sin/omega held at 1 the inequality's left side is 0 on
    # the whole window, so its slack is minus the bound at the window's ends,
    # -(c/omega_r) * omega_r^(1/2) with c = K_sin(1)/(4 K(0)) = 1/8
    monkeypatch.setattr(spectral, "k_sin_over_omega",
                        lambda kernel, omega: np.full_like(omega, 0.25))
    out = tmp_path / "verify.json"
    assert main(["verify", "--k-list", "2", "--out", str(out)]) == 3
    report = load_json(out)
    assert report["passed"] is False
    (two,) = report["results"]
    assert two["rel_err"] <= 1e-6
    assert two["inequality_min_slack"] == pytest.approx(-0.125 * 3.0**-0.25, rel=1e-12)


_HUGE_WEIGHTS = "[basis]\nlength = 1000.0\n[weights]\nrule = power\ns = 60\n"
_HUGE_SQUARE = "lambda_k^2 leaves the float range at lambda_k = 2.197937185"
_HUGE_EIGENVALUE = "alpha_k = (k pi / L)^2 at L = 1e-300 leaves the float range"
_TINY_LENGTH = "alpha_k = (k pi / L)^2 at L = 5e-324 leaves the float range"
_SMALL_FIELD = ["--N", "4", "--nx", "2", "--n", "8", "--ensemble", "2"]

# each case: config text (or None), the command's arguments ({tmp} is the
# test's directory, {mode} a sampled mode CSV), a CSV text written to
# {tmp}/in.csv (or None), and the cause stderr must name
_REJECTED = {
    "float-not-a-number": ("[sampler]\ndt = fast\n", ["kernel"], None, "'fast' is not a number"),
    "float-not-finite": ("[sampler]\ndt = inf\n", ["kernel"], None, "'inf' is not finite"),
    "bad-choice": ("[kernel]\nkernel = gauss\n", ["kernel"], None,
                   "'gauss' must be one of expsum, powerlaw"),
    "atoms-not-json": ("[kernel]\natoms = [[1, 1\n", ["kernel"], None,
                       "atoms must be JSON like [[w, x], ...]"),
    "atoms-wrong-shape": ("[kernel]\natoms = [1.0, 1.0]\n", ["kernel"], None,
                          "atoms must be a nonempty list of [w, x] pairs"),
    "bad-number-list": ("[weights]\nvalues = 1.0, one\n", ["kernel"], None,
                        "expected a list of numbers"),
    "lags-not-integers": ("[regularity]\nlags = 1, 2.5\n", ["kernel"], None,
                          "lags must be 'dyadic' or comma-separated integers"),
    "lags-not-positive": ("[regularity]\nlags = 0, 2\n", ["kernel"], None,
                          "lag steps must be positive integers"),
    "t-max-not-positive": (None, ["kernel", "--t-max", "0"], None, "--t-max 0.0 must be positive"),
    "omega-max-not-positive": (None, ["spectrum", "--omega-max", "-1"], None,
                               "--omega-max -1.0 must be positive"),
    "k-list-not-integers": (None, ["verify", "--k-list", "1,two"], None,
                            "--k-list '1,two' must be comma-separated integers"),
    "k-list-not-positive": (None, ["verify", "--k-list", "0,1"], None,
                            "--k-list needs positive mode indices"),
    "input-missing": (None, ["hoelder", "--in", "{tmp}/none.csv"], None, "input file not found"),
    "input-unknown-header": (None, ["hoelder", "--in", "{tmp}/in.csv"], "a,b\n1,2\n",
                             "unrecognized columns ['a', 'b']"),
    "input-no-rows": (None, ["hoelder", "--in", "{tmp}/in.csv"], "path_id,t,value\n",
                      "no data rows"),
    "input-not-a-grid": (None, ["hoelder", "--in", "{tmp}/in.csv"],
                         "path_id,t,value\n0,0.0,1.0\n0,0.5,1.0\n1,0.0,1.0\n",
                         "rows do not form a full (path, t, x) grid"),
    "input-one-time": (None, ["hoelder", "--in", "{tmp}/in.csv"],
                       "path_id,t,value\n0,0.0,1.0\n1,0.0,2.0\n", "need at least 2 time samples"),
    "input-non-uniform-times": (None, ["hoelder", "--in", "{tmp}/in.csv"],
                                "path_id,t,value\n0,0.0,1.0\n0,1.0,2.0\n0,3.0,1.0\n",
                                "time grid is not uniform"),
    "space-axis-on-mode-csv": (None, ["hoelder", "--in", "{mode}", "--axis", "space"], None,
                               "space axis needs a field CSV with an x column"),
    # numbers past the float range: lambda_1 = alpha_1^-60 is about 1e300 on
    # the interval of length 1000, and alpha_1 = (pi / 1e-300)^2 about 1e601
    "overflow-series-constant": (_HUGE_WEIGHTS, ["sample-field", *_SMALL_FIELD], None,
                                 "the series constant (L / pi)^(2 q) leaves the float range"),
    "overflow-weight-squared-spectrum": (_HUGE_WEIGHTS, ["spectrum"], None,
                                         _HUGE_SQUARE),
    "overflow-weight-squared-verify": (_HUGE_WEIGHTS, ["verify"], None,
                                       _HUGE_SQUARE),
    "overflow-weight": ("[basis]\nlength = 1000.0\n[weights]\nrule = power\ns = 70\n",
                        ["sample-mode", "--n", "8"], None,
                        "lambda_k = alpha_k^(-s) at s = 70.0 leaves the float range"),
    "overflow-eigenvalue-sample-mode": ("[basis]\nlength = 1e-300\n", ["sample-mode", "--n", "8"],
                                        None, _HUGE_EIGENVALUE),
    "overflow-eigenvalue-sample-field": ("[basis]\nlength = 1e-300\n",
                                         ["sample-field", *_SMALL_FIELD], None, _HUGE_EIGENVALUE),
    # past the float range before the power: k pi / L at L = 5e-324, and an
    # explicit weight's square in the series gates
    "overflow-eigenvalue-base-sample-mode": ("[basis]\nlength = 5e-324\n",
                                             ["sample-mode", "--n", "8"], None, _TINY_LENGTH),
    "overflow-eigenvalue-base-sample-field": ("[basis]\nlength = 5e-324\n",
                                              ["sample-field", *_SMALL_FIELD], None, _TINY_LENGTH),
    # a step so small that the innovations gain's prediction variance
    # cancels to 0 or below, which would give nan paths
    "tiny-dt-sample-mode": (None, ["sample-mode", "--n", "8", "--ensemble", "2",
                                   "--dt", "1e-300"], None, "dt 1e-300 is too small"),
    "tiny-dt-sample-field": (None, ["sample-field", *_SMALL_FIELD, "--dt", "1e-300",
                                    "--tail-budget", "1"], None, "dt 1e-300 is too small"),
    "overflow-explicit-weight-squared": (
        "[weights]\nrule = explicit\nvalues = 1e200" + ", 1.0" * 11 + "\n",
        ["sample-field", *_SMALL_FIELD], None,
        "lambda_k^2 leaves the float range at lambda_k = 1e+200"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config, argv, csv_text, cause", _REJECTED.values(), ids=_REJECTED)
def test_rejected_input_exits_2_with_no_artifact(tmp_path, capsys, config, argv, csv_text,
                                                 cause):
    mode_csv = tmp_path / "paths.csv"
    if "{mode}" in argv:
        assert main(["sample-mode", "--dt", "0.125", "--n", "64", "--ensemble", "2",
                     "--out", str(mode_csv)]) == 0
    work = tmp_path / "work"
    work.mkdir()
    argv = [a.format(tmp=work, mode=mode_csv) for a in argv]
    if config is not None:
        (work / "c.ini").write_text(config)
        argv += ["--config", str(work / "c.ini")]
    if csv_text is not None:
        (work / "in.csv").write_text(csv_text)
    before = sorted(work.iterdir())
    assert main([*argv, "--out", str(work / "out")]) == 2
    err = capsys.readouterr().err
    assert cause in err
    assert err.startswith("glefield: error: ") and err.count("\n") == 1
    assert sorted(work.iterdir()) == before


def test_hoelder_rejects_short_lag_span(tmp_path, capsys):
    paths = tmp_path / "paths.csv"
    assert main(["sample-mode", "--dt", "0.125", "--n", "64", "--ensemble", "2",
                 "--out", str(paths)]) == 0
    code = main(["hoelder", "--in", str(paths), "--lags", "1,2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_hoelder_rejects_duplicate_cells(tmp_path, capsys):
    # one row repeated in place of another keeps the row count of a full
    # grid; the missing cell must not be read as uninitialized memory
    paths = tmp_path / "paths.csv"
    assert main(["sample-mode", "--dt", "0.125", "--n", "64", "--ensemble", "2",
                 "--out", str(paths)]) == 0
    lines = paths.read_text().splitlines(keepends=True)
    lines[2] = lines[1]
    paths.write_text("".join(lines))
    code = main(["hoelder", "--in", str(paths), "--lags", "1,2,4,8,16",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "duplicate (path, t, x) rows" in capsys.readouterr().err


def test_hoelder_rejects_non_finite_cells(tmp_path, capsys):
    paths = tmp_path / "paths.csv"
    assert main(["sample-mode", "--dt", "0.125", "--n", "64", "--ensemble", "2",
                 "--out", str(paths)]) == 0
    lines = paths.read_text().splitlines(keepends=True)
    for bad in ("nan", "inf", "-inf"):
        cells = lines[1].rstrip("\n").split(",")
        cells[-1] = bad
        paths.write_text("".join(lines[:1] + [",".join(cells) + "\n"] + lines[2:]))
        code = main(["hoelder", "--in", str(paths), "--lags", "1,2,4,8,16",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "non-finite cell" in capsys.readouterr().err


def test_hoelder_rejects_mode_count_below_one(tmp_path, capsys):
    field = tmp_path / "field.csv"
    assert main(["sample-field", "--dynamics", "heat", "--N", "4", "--nx", "3",
                 "--n", "32", "--ensemble", "2", "--tail-budget", "1.0",
                 "--out", str(field)]) == 0
    cfg = tmp_path / "run.ini"
    cfg.write_text("[weights]\nrule = flat\nlam = 1.0\n")
    for bad in (0, -3):
        code = main(["hoelder", "--in", str(field), "--config", str(cfg),
                     "--dynamics", "heat", "--N", str(bad), "--lags", "1,2,4",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"--N {bad} must be >= 1" in capsys.readouterr().err


def test_negative_bootstrap_exits_2(tmp_path, capsys):
    paths = tmp_path / "paths.csv"
    assert main(["sample-mode", "--dt", "0.125", "--n", "64", "--ensemble", "2",
                 "--out", str(paths)]) == 0
    cfg = tmp_path / "boot.ini"
    cfg.write_text("[regularity]\nbootstrap = -3\n")
    out = tmp_path / "r.json"
    for extra in (["--bootstrap", "-3"], ["--config", str(cfg)]):
        assert main(["hoelder", "--in", str(paths), "--out", str(out), *extra]) == 2
        assert "bootstrap -3 must be >= 0" in capsys.readouterr().err
        assert not out.exists()


def test_seed_beyond_64_bits_exits_2(tmp_path, capsys):
    code = main(["sample-mode", "--dt", "0.125", "--n", "16", "--ensemble", "2",
                 "--seed", str(2**64), "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_table_of_one_point_exits_2(tmp_path, capsys):
    for command in ("kernel", "spectrum"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--points", "1", "--out", str(out)]) == 2
        assert "--points 1 must be >= 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def test_hoelder_mode_roundtrip_with_oracle(tmp_path):
    paths = tmp_path / "paths.csv"
    assert main(["sample-mode", "--dt", str(2.0**-8), "--n", "4096",
                 "--ensemble", "32", "--seed", "4", "--out", str(paths)]) == 0
    out = tmp_path / "report.json"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[kernel]\nkernel = expsum\n")
    assert main(["hoelder", "--in", str(paths), "--axis", "time",
                 "--lags", "8,16,32,64,128", "--config", str(cfg), "--k", "1",
                 "--out", str(out)]) == 0
    report = load_json(out)
    assert report["axis"] == "time"
    assert report["n_members"] == 32
    assert report["lags"] == [h * 2.0**-8 for h in (8, 16, 32, 64, 128)]
    dev = np.abs(np.array(report["values"]) - np.array(report["oracle_values"]))
    assert np.all(dev <= 4.0 * np.array(report["stderr"]))
    assert not report["flagged"]
    assert report["ci"][0] <= report["gamma_hat"] <= report["ci"][1]


def test_hoelder_mode_oracle_follows_dynamics(tmp_path):
    # a memoryless mode CSV checked against the memoryless law, not the gle
    # one, whether the law comes from the flag or from the config
    paths = tmp_path / "ou.csv"
    assert main(["sample-mode", "--dt", str(2.0**-8), "--n", "1024", "--dynamics", "heat",
                 "--ensemble", "32", "--seed", "4", "--out", str(paths)]) == 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[kernel]\nkernel = expsum\n")
    heat = tmp_path / "heat.ini"
    heat.write_text("[kernel]\nkernel = expsum\n[sampler]\ndynamics = heat\n")
    out = tmp_path / "report.json"
    oracles = []
    for law in (["--config", str(cfg), "--dynamics", "heat"], ["--config", str(heat)]):
        assert main(["hoelder", "--in", str(paths), "--axis", "time", *law,
                     "--lags", "8,16,32,64,128", "--k", "1", "--out", str(out)]) == 0
        report = load_json(out)
        dev = np.abs(np.array(report["values"]) - np.array(report["oracle_values"]))
        assert np.all(dev <= 4.0 * np.array(report["stderr"]))
        oracles.append(report["oracle_values"])
    assert oracles[0] == oracles[1]


def test_hoelder_oracle_under_a_stiff_kernel_takes_the_step_law(tmp_path):
    # under atoms [[1, 1e10]] rounding loses mode 1's slow decay rate, and an
    # eigenbasis would write -2e-20 at every lag, a negative variance; the
    # oracle comes from the step law (Phi(h), Q(h)) of _Markov.transition,
    # where Phi00 rounds to 1 and 2 (1 - Phi00) would read 0 at every lag
    paths = tmp_path / "paths.csv"
    assert main(["sample-mode", "--dynamics", "heat", "--dt", "0.01", "--n", "256",
                 "--ensemble", "4", "--out", str(paths)]) == 0
    cfg = tmp_path / "stiff.ini"
    cfg.write_text("[kernel]\natoms = [[1.0, 1e10]]\n")
    out = tmp_path / "report.json"
    assert main(["hoelder", "--in", str(paths), "--axis", "time", "--config", str(cfg),
                 "--k", "1", "--out", str(out)]) == 0
    report = load_json(out)
    assert _Markov(KernelMeasure([(1.0, 1e10)]), [Mode(1, 1.0, 1.0)]).eig == [None]
    # the 2x2 closed form 2 r0 (1 - r(h)/r0), r0 = 1, over the drift's two
    # real eigenvalues mu1 (the slow one, taken without cancellation) and mu2
    x = 1e10
    root = math.sqrt(x * x - 4.0)
    mu1, mu2 = -2.0 / (x + root), -(x + root) / 2.0
    h = np.array(report["lags"])
    exact = 2.0 * (-mu2 * np.expm1(mu1 * h) + mu1 * np.expm1(mu2 * h)) / (mu2 - mu1)
    np.testing.assert_allclose(report["oracle_values"], exact, rtol=1e-6, atol=0.0)


def test_hoelder_one_point_field_gets_the_field_oracle(tmp_path):
    # a field CSV with one x point has an x column, so its oracle is the
    # field's at that point, not mode k's
    field = tmp_path / "field.csv"
    assert main(["sample-field", "--N", "16", "--nx", "1", "--n", "256", "--ensemble", "8",
                 "--tail-budget", "1.0", "--out", str(field)]) == 0
    cfg = tmp_path / "c.ini"
    cfg.write_text("[weights]\nrule = flat\n")
    out = tmp_path / "report.json"
    assert main(["hoelder", "--in", str(field), "--config", str(cfg), "--N", "16",
                 "--out", str(out)]) == 0
    report = load_json(out)
    kernel, basis, weights = cli._model(load_config(str(cfg)))
    field_oracle = theoretical_field_variogram(kernel, basis, weights, 16,
                                               [math.pi / 2], report["lags"])
    assert report["oracle_values"] == field_oracle.values.tolist()


def test_hoelder_space_axis_with_field_oracle(tmp_path):
    field = tmp_path / "field.csv"
    assert main(["sample-field", "--N", "8", "--nx", "17", "--dt", "4.0",
                 "--n", "8", "--ensemble", "16", "--seed", "6",
                 "--tail-budget", "1.0", "--out", str(field)]) == 0
    out = tmp_path / "space.json"
    assert main(["hoelder", "--in", str(field), "--axis", "space",
                 "--lags", "1,2,4,8,16", "--config", str(tmp_path / "c.ini"),
                 "--N", "8", "--out", str(out)]) == 2  # config must exist
    cfg = tmp_path / "c.ini"
    cfg.write_text("[weights]\nrule = flat\nlam = 1.0\n")
    assert main(["hoelder", "--in", str(field), "--axis", "space",
                 "--lags", "1,2,4,8,16", "--config", str(cfg),
                 "--N", "8", "--out", str(out)]) == 0
    report = load_json(out)
    assert report["axis"] == "space"
    assert report["lags"][0] == pytest.approx(math.pi / 18.0)
    dev = np.abs(np.array(report["values"]) - np.array(report["oracle_values"]))
    assert np.all(dev <= 4.0 * np.array(report["stderr"]))


def test_hoelder_dyadic_default_lags(tmp_path):
    paths = tmp_path / "paths.csv"
    assert main(["sample-mode", "--dt", "0.125", "--n", "128", "--ensemble", "4",
                 "--out", str(paths)]) == 0
    out = tmp_path / "r.json"
    assert main(["hoelder", "--in", str(paths), "--out", str(out)]) == 0
    report = load_json(out)
    assert report["lags"] == [s * 0.125 for s in (1, 2, 4, 8, 16, 32)]
    assert report["oracle_values"] is None


def test_sample_field_defaults_round_trip_on_the_space_axis(tmp_path):
    # at the default --nx the dyadic lags reach 16 steps, the span of 16 the
    # fit needs: at 16 points they stopped at 4 (3 lags) and at 32 at 8
    field = tmp_path / "field.csv"
    assert main(["sample-field", "--dt", "4.0", "--n", "4", "--ensemble", "2",
                 "--out", str(field)]) == 0
    out = tmp_path / "space.json"
    assert main(["hoelder", "--in", str(field), "--axis", "space", "--out", str(out)]) == 0
    report = load_json(out)
    assert report["lags"] == pytest.approx([s * math.pi / 65.0 for s in (1, 2, 4, 8, 16)])


def test_thread_configuration_errors(tmp_path, capsys):
    base = ["sample-field", "--N", "1", "--nx", "2", "--n", "8", "--ensemble", "2",
            "--tail-budget", "1.0", "--out", str(tmp_path / "f.csv")]
    assert main(base + ["--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_reproduce_checks_threads_before_creating_out(tmp_path):
    out = tmp_path / "run"
    assert main(["reproduce", "--threads", "0", "--out", str(out)]) == 2
    assert not out.exists()


def _tiny_profile(cells):
    # a profile declared as data alone: 8 modes of a power-law weight rule at
    # profile level, short grids, and cells that set their own keys on top
    return {
        "config": {"weights": {"rule": "power", "s": 0.1},
                   "sampler": {"dt": 0.25, "n": 64, "ensemble": 4, "seed": 3},
                   "regularity": {"bootstrap": 20, "lags": "1, 2, 4, 8, 16"},
                   "tolerances": {"tail_budget": 1.0}},
        "n_modes": 8,
        "cells": cells,
    }


def test_reproduce_runs_a_profile_declared_as_data(tmp_path, monkeypatch):
    cells = {
        "gle_time": {"config": {}, "axis": "time", "nx": 4, "fit_seed": 1},
        "heat_space": {"config": {"sampler": {"dynamics": "heat", "n": 4}},
                       "axis": "space", "nx": 33, "fit_seed": 2},
        "spectral_time": {"config": {"sampler": {"dynamics": "spectral", "dt": 0.5}},
                          "axis": "time", "nx": 2, "fit_seed": 3},
    }
    monkeypatch.setitem(cli._PROFILES, "tiny", _tiny_profile(cells))
    out = tmp_path / "run"
    assert main(["reproduce", "--profile", "tiny", "--threads", "1", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{name}_variogram.csv" for name in cells] + ["summary.json", "reproduce.provenance.json"])
    # each cell's grid reached its run: the lag column is its steps times its spacing
    spacing = {"gle_time": 0.25, "heat_space": math.pi / 34, "spectral_time": 0.5}
    for name, step in spacing.items():
        rows = np.loadtxt(out / f"{name}_variogram.csv", delimiter=",", skiprows=1)
        assert rows[:, 0] == pytest.approx([s * step for s in (1, 2, 4, 8, 16)], rel=1e-15)
    summary = load_json(out / "summary.json")
    assert summary.keys() == {"profile", *cells}
    assert summary["profile"] == "tiny"
    for name in cells:
        assert summary[name].keys() == {"gamma_hat", "ci_low", "ci_high", "r_squared"}
    sidecar = load_json(out / "reproduce.provenance.json")
    assert sidecar["laws"] == {"gle_time": "gle", "heat_space": "heat", "spectral_time": "spectral"}
    assert sidecar["n_modes"] == 8
    # the recorded config is the profile's: defaults and its keys, no cell's
    assert sidecar["config"]["weights"]["rule"] == "power"
    assert sidecar["config"]["sampler"]["dynamics"] == "gle"
    assert sidecar["config"]["sampler"]["n"] == "64"


@pytest.mark.parametrize("bad, cause", [
    ({"sampler": {"step": "0.5"}}, "profile tiny cell b: unknown key 'step' in [sampler]"),
    ({"samplr": {"dt": "0.5"}}, "profile tiny cell b: unknown key 'dt' in [samplr]"),
    ({"regularity": {"lags": "0"}}, "profile tiny cell b: lag steps must be positive integers"),
])
def test_reproduce_rejects_a_malformed_cell_before_any_output(tmp_path, monkeypatch, capsys,
                                                              bad, cause):
    # the good cell comes first, so a run that resolved cells as it went
    # would have written its CSV before the bad one failed
    cells = {"a": {"config": {}, "axis": "time", "nx": 4, "fit_seed": 1},
             "b": {"config": bad, "axis": "time", "nx": 4, "fit_seed": 1}}
    monkeypatch.setitem(cli._PROFILES, "tiny", _tiny_profile(cells))
    out = tmp_path / "run"
    assert main(["reproduce", "--profile", "tiny", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"glefield: error: {cause}\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value, what", [
    ("axis", "spcae", "'time' or 'space'"),
    ("nx", 0, "a positive integer"),
    ("fit_seed", -1, "an integer in [0, 2**64)"),
])
def test_reproduce_checks_each_cells_own_fields_before_any_output(tmp_path, monkeypatch, capsys,
                                                                 field, value, what):
    # a cell's axis, interior point count and bootstrap seed are not config
    # keys, and the good first cell would have left its CSV had the bad
    # second one failed only when it ran
    cells = {"a": {"config": {}, "axis": "time", "nx": 4, "fit_seed": 1},
             "b": {"config": {}, "axis": "time", "nx": 4, "fit_seed": 1, field: value}}
    monkeypatch.setitem(cli._PROFILES, "tiny", _tiny_profile(cells))
    out = tmp_path / "run"
    assert main(["reproduce", "--profile", "tiny", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"glefield: error: profile tiny cell b: {field} {value!r} must be {what}\n")
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2


@pytest.mark.skipif(shutil.which("glefield") is None, reason="script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(
        ["glefield", "--version"], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("glefield")


def test_module_entry_point_runs():
    # python -m glefield needs no console script on PATH
    src = str(Path(glefield.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "glefield", "--version"],
        capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("glefield")


_SCIPY_FREE_RUN = """
import json
import sys
from glefield import cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

tmp = sys.argv[1]
grid = ["--dt", "0.25", "--n", "64", "--ensemble", "2"]
field = ["sample-field", "--N", "4", "--nx", "3", "--tail-budget", "1.0", *grid]
runs = [
    [*field, "--dynamics", "gle", "--out", tmp + "/gle.csv"],
    [*field, "--dynamics", "heat", "--out", tmp + "/heat.csv"],
    ["sample-mode", *grid, "--dynamics", "gle", "--out", tmp + "/ce.csv"],
    ["sample-mode", *grid, "--dynamics", "heat", "--out", tmp + "/ou.csv"],
    ["hoelder", "--in", tmp + "/gle.csv", "--lags", "1,2,4,16", "--out", tmp + "/h.json"],
    ["hoelder", "--in", tmp + "/ce.csv", "--lags", "1,2,4,16", "--config", tmp + "/atoms.ini",
     "--k", "1", "--out", tmp + "/hm.json"],
    ["spectrum", "--points", "8", "--out", tmp + "/s.csv"],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
print(json.dumps(scipy_modules()))
for argv in (["kernel", "--config", tmp + "/power.ini", "--out", tmp + "/k.csv"],
             ["verify", "--k-list", "1,2", "--out", tmp + "/v.json"]):
    assert cli.main(argv) == 0, argv
print(json.dumps(scipy_modules()))
"""


def test_sampling_and_fitting_never_load_scipy(tmp_path):
    # a fresh interpreter: sampling, fitting and tabulating a spectrum are
    # numpy only; the power-law nodes and the quadrature commands import
    # scipy when they run
    (tmp_path / "atoms.ini").write_text("[kernel]\nkernel = expsum\n")
    (tmp_path / "power.ini").write_text("[kernel]\nkernel = powerlaw\nnodes = 16\n")
    src = str(Path(glefield.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path)], capture_output=True,
        text=True, check=False, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    before, after = (json.loads(line) for line in proc.stdout.splitlines())
    assert before == []
    assert {"scipy.integrate", "scipy.special"} <= set(after)
    assert not any(name.startswith("scipy.signal") for name in after)
