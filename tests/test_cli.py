"""Command-line interface: config handling, artifacts, exit codes."""

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import glefield
from glefield import cli
from glefield.cli import _write_columns, _write_field_csv, load_config, main


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
    # configparser lowercases keys, so a mixed-case key is anchored through it
    cfg = tmp_path / "bad.ini"
    for key in ("bogus_key", "Bogus_Key"):
        cfg.write_text(f"[kernel]\nkernel = expsum\n{key} = 1\n")
        code = main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "k.csv")])
        assert code == 2
        assert f"{cfg}:3: unknown key 'bogus_key' in [kernel]" in capsys.readouterr().err


def test_unknown_section_is_line_anchored(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[kernel]\nkernel = expsum\n\n[wavelets]\nfoo = 1\n")
    code = main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "k.csv")])
    assert code == 2
    assert f"{cfg}:4: unknown section [wavelets]" in capsys.readouterr().err


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
    assert sidecar["method"] == "ce"
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
    assert sidecar["dynamics"] == "gle"
    assert sidecar["wellposedness"]["convergent"] is True
    assert sidecar["regularity_assumption"]["convergent"] is True
    assert 0.0 < sidecar["tail_bound"] < 1.0


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


def test_verify_fails_unreachable_bar(tmp_path, capsys):
    cfg = tmp_path / "tight.ini"
    cfg.write_text("[tolerances]\nverify_rel_tol = 1e-15\n")
    out = tmp_path / "verify.json"
    code = main(["verify", "--config", str(cfg), "--k-list", "2", "--out", str(out)])
    assert code == 3
    assert load_json(out)["passed"] is False


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
    # a memoryless mode CSV checked against the memoryless law, not the gle one
    paths = tmp_path / "ou.csv"
    assert main(["sample-mode", "--dt", str(2.0**-8), "--n", "1024", "--method", "ou",
                 "--ensemble", "32", "--seed", "4", "--out", str(paths)]) == 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[kernel]\nkernel = expsum\n")
    out = tmp_path / "report.json"
    assert main(["hoelder", "--in", str(paths), "--axis", "time", "--dynamics", "heat",
                 "--lags", "8,16,32,64,128", "--config", str(cfg), "--k", "1",
                 "--out", str(out)]) == 0
    report = load_json(out)
    dev = np.abs(np.array(report["values"]) - np.array(report["oracle_values"]))
    assert np.all(dev <= 4.0 * np.array(report["stderr"]))


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


def test_thread_configuration_errors(tmp_path, capsys, monkeypatch):
    base = ["sample-field", "--N", "1", "--nx", "2", "--n", "8", "--ensemble", "2",
            "--tail-budget", "1.0", "--out", str(tmp_path / "f.csv")]
    assert main(base + ["--threads", "0"]) == 2
    monkeypatch.setenv("GLEFIELD_THREADS", "abc")
    assert main(base) == 2
    assert "GLEFIELD_THREADS" in capsys.readouterr().err


def test_reproduce_checks_threads_before_creating_out(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["reproduce", "--threads", "0", "--out", str(out)]) == 2
    assert not out.exists()
    monkeypatch.setenv("GLEFIELD_THREADS", "0")
    assert main(["reproduce", "--out", str(out)]) == 2
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
    ["sample-mode", *grid, "--method", "ce", "--out", tmp + "/ce.csv"],
    ["sample-mode", *grid, "--method", "ou", "--out", tmp + "/ou.csv"],
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
