"""CLI behavior: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycle_rees
import cycle_rees.cli as cli
from cycle_rees.cli import run
from cycle_rees.rings import parse_polynomial


def invoke(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_classify_text():
    code, out = invoke("classify", "--n", "6", "--t", "2")
    assert code == 0
    assert out.strip() == "fiber"


def test_classify_linear_cell():
    code, out = invoke("classify", "--n", "5", "--t", "3")
    assert code == 0 and out.strip() == "linear"


def test_timings_add_rounded_stage_times_to_json():
    code, out = invoke("classify", "--n", "6", "--t", "5", "--timings", "--format", "json")
    assert code == 0
    (record,) = json.loads(out)
    assert set(record["ms"]) == {"sym", "rees"}
    assert all(round(ms, 3) == ms for ms in record["ms"].values())
    code, out = invoke("table", "--n-min", "3", "--n-max", "4", "--jobs", "1", "--timings", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 5 and all("ms" in r for r in records)
    code, out = invoke("table", "--n-min", "3", "--n-max", "4", "--jobs", "1", "--format", "json")
    assert code == 0
    assert not any("ms" in r for r in json.loads(out))


def test_fiber_dim_with_rank_check():
    code, out = invoke("fiber-dim", "--n", "6", "--t", "3", "--check-rank")
    assert code == 0
    assert out.strip() == "4 (rank check: ok)"


def test_hilbert_text_and_verify():
    code, out = invoke("hilbert", "--n", "4")
    assert code == 0
    assert "1 + 3*z + z^2" in out
    code, out = invoke("hilbert", "--n", "4", "--verify")
    assert code == 0
    assert "match" in out


def test_cm_type():
    code, out = invoke("cm-type", "--n", "5")
    assert code == 0 and out.strip() == "2"


def test_verify_gb_half_n8():
    code, out = invoke("verify-gb", "--family", "half", "--n", "8")
    assert code == 0
    assert "groebner basis: yes" in out


def test_verify_gb_json():
    code, out = invoke("verify-gb", "--family", "n2", "--n", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["groebner"] and payload["squarefree_initial"] and payload["x_condition"]


def test_pfaffian_output():
    code, out = invoke("pfaffian", "--n", "4")
    assert code == 0
    assert "y1*y3 - y0*y2" in out


def test_ideal_dumps():
    code, out = invoke("ideal", "--n", "4", "--t", "2", "--which", "path")
    assert code == 0
    assert "x1*x2" in out
    code, out = invoke("ideal", "--n", "4", "--t", "2", "--which", "fiber")
    assert code == 0
    assert out.strip() == "y1*y3 - y0*y2"
    code, out = invoke("ideal", "--n", "6", "--t", "4", "--which", "family", "--format", "json")
    assert code == 0
    fam = json.loads(out)
    assert fam["g2"] == "x2*y1*y3 - x4*y0*y2"


def test_usage_errors_exit_2():
    code, _ = invoke("classify", "--n", "6")
    assert code == 2
    code, _ = invoke("ideal", "--n", "7", "--t", "3", "--which", "family")
    assert code == 2


def test_budget_exhaustion_exit_3():
    code, out = invoke("classify", "--n", "9", "--t", "5", "--budget-secs", "0.000001")
    assert code == 3


def test_table_text_small_grid():
    code, out = invoke("table", "--n-min", "3", "--n-max", "6", "--jobs", "1")
    assert code == 0
    assert out == (
        "n\\t 1 2 3 4 5\n"
        "3   L L\n"
        "4   L F L\n"
        "5   L L L L\n"
        "6   L F F F L\n"
    )


def test_json_and_csv_deterministic():
    code1, out1 = invoke("table", "--n-min", "3", "--n-max", "5", "--format", "json")
    code2, out2 = invoke("table", "--n-min", "3", "--n-max", "5", "--format", "json", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload[0] == {"class": "linear", "fiber_dim": 3, "gcd": 1, "n": 3, "t": 1}
    code3, out3 = invoke("table", "--n-min", "3", "--n-max", "5", "--format", "csv")
    assert code3 == 0
    assert out3.splitlines()[0] == "n,t,class,gcd,fiber_dim"
    assert "4,2,fiber,2,3" in out3


def test_invariant_failure_exits_1(monkeypatch, capsys):
    import cycle_rees.rees as rees

    monkeypatch.setattr(rees, "pfaffian", lambda matrix: parse_polynomial(matrix.ring, "1"))
    code, _ = invoke("pfaffian", "--n", "6")
    assert code == 1
    assert "Pfaffian does not match" in capsys.readouterr().err


GB_FAILURE_JSON = (
    '{"certificate": {"basis": ["x5*y1 - x1*y2", "x0*y2 - x2*y3", "x1*y3 - x3*y4", "x2*y4 - x4*y5", '
    '"x3*y5 - x5*y0", "x0*y1 - x4*y0", "x2*y1*y3 - x4*y0*y2", "x4*y1*y3*y5 - x4*y0*y2*y4", '
    '"y1*y3*y5 - y0*y2*y4"], "order": [{"base": "grevlex", "blocks": ["Y"]}, {"base": "lex", "blocks": ["X"]}]}, '
    '"failure": {"pair": [0, 1], "remainder": "x5*y1 - x1*y2"}, "family": "n2", "groebner": false, "n": 6, '
    '"squarefree_initial": true, "x_condition": true}\n'
)


# The real checks pass on every cell the CLI accepts, so only a patched check
# reaches the failure rendering.
@pytest.mark.parametrize(
    "name, fake, argv, text, json_text",
    [
        (
            "is_groebner_basis",
            lambda polys, order, budget: (False, (0, 1, polys[0])),
            ["verify-gb", "--family", "n2", "--n", "6"],
            "groebner basis: NO\n"
            "squarefree initial ideal: yes\n"
            "x-condition: yes\n"
            "offending pair 0,1 with remainder x5*y1 - x1*y2\n",
            GB_FAILURE_JSON,
        ),
        (
            "verify_hilbert",
            lambda n, budget: False,
            ["hilbert", "--n", "4", "--verify"],
            "(1 + 3*z + z^2) / (1-z)^5\ninitial-ideal recomputation: MISMATCH\n",
            '{"denom_power": 5, "numerator": [1, 3, 1], "verified": false}\n',
        ),
        (
            "circulant_rank",
            lambda n, t: 0,
            ["fiber-dim", "--n", "6", "--t", "3", "--check-rank"],
            "4 (rank check: FAILED)\n",
            '{"fiber_dim": 4, "rank": 0, "rank_check": false}\n',
        ),
    ],
)
def test_failed_check_exits_1(monkeypatch, name, fake, argv, text, json_text):
    monkeypatch.setattr(cli, name, fake)
    assert invoke(*argv) == (1, text)
    assert invoke(*argv, "--format", "json") == (1, json_text)


def test_failed_hilbert_certificate_exits_1(monkeypatch):
    # without f1 the family generates less than J, so the certificate fails
    module = importlib.import_module("cycle_rees.classify")
    full = module.family_n_minus_2
    monkeypatch.setattr(module, "family_n_minus_2", lambda n: {k: p for k, p in full(n).items() if k != "f1"})
    assert module.verify_hilbert(6) is False
    text = "(1 + 5*z + 9*z^2 + 5*z^3 + z^4) / (1-z)^7\ninitial-ideal recomputation: MISMATCH\n"
    assert invoke("hilbert", "--n", "6", "--verify") == (1, text)


def test_ideal_reads_the_budget_only_for_eliminations(capsys):
    for which in ("path", "sym", "family"):
        code, out = invoke("ideal", "--n", "6", "--t", "4", "--which", which, "--budget-secs", "0")
        assert code == 0 and out, which
    for which in ("rees", "fiber"):
        code, out = invoke("ideal", "--n", "6", "--t", "4", "--which", which, "--budget-secs", "0")
        assert code == 2 and out == "", which
        assert "--budget-secs" in capsys.readouterr().err


def test_budget_secs_flag_must_be_positive(capsys):
    for bad in ("0", "-1", "nan"):
        for argv in (("classify", "--n", "5", "--t", "2"), ("cm-type", "--n", "5")):
            code, out = invoke(*argv, "--budget-secs", bad)
            assert code == 2 and out == "", (argv, bad)
            assert "--budget-secs" in capsys.readouterr().err
    code, out = invoke("classify", "--n", "5", "--t", "2", "--budget-secs", "30")
    assert code == 0 and out.strip() == "linear"


def test_table_jobs_must_be_positive(capsys):
    for bad in ("0", "-3"):
        code, out = invoke("table", "--n-min", "3", "--n-max", "4", "--jobs", bad)
        assert code == 2 and out == "", bad
        assert "--jobs" in capsys.readouterr().err


def test_csv_only_on_record_commands(capsys):
    for argv in (
        ("fiber-dim", "--n", "6", "--t", "3"),
        ("hilbert", "--n", "4"),
        ("cm-type", "--n", "5"),
        ("verify-gb", "--family", "n2", "--n", "6"),
        ("pfaffian", "--n", "4"),
        ("ideal", "--n", "4", "--t", "2", "--which", "path"),
    ):
        code, out = invoke(*argv, "--format", "csv")
        assert code == 2 and out == "", argv
        assert "--format" in capsys.readouterr().err
    code, out = invoke("classify", "--n", "4", "--t", "2", "--format", "csv")
    assert code == 0 and out == "n,t,class,gcd,fiber_dim\n4,2,fiber,2,3\n"


GOLDEN_DIR = Path(__file__).parent / "golden_cli"

# file in tests/golden_cli -> the argv whose output it holds, byte for byte
GOLDEN_CLI = {
    "table_3_7.txt": ["table", "--n-min", "3", "--n-max", "7", "--jobs", "1"],
    "table_3_7.json": ["table", "--n-min", "3", "--n-max", "7", "--jobs", "1", "--format", "json"],
    "table_3_7.csv": ["table", "--n-min", "3", "--n-max", "7", "--jobs", "1", "--format", "csv"],
    "ideal_8_6_rees.txt": ["ideal", "--n", "8", "--t", "6", "--which", "rees"],
    "ideal_6_2_fiber.json": ["ideal", "--n", "6", "--t", "2", "--which", "fiber", "--format", "json"],
    "hilbert_8_verify.json": ["hilbert", "--n", "8", "--verify", "--format", "json"],
    "cm_type_9.txt": ["cm-type", "--n", "9"],
    "verify_gb_half_10.json": ["verify-gb", "--family", "half", "--n", "10", "--format", "json"],
    "pfaffian_8.txt": ["pfaffian", "--n", "8"],
    "classify_8_3.json": ["classify", "--n", "8", "--t", "3", "--format", "json"],
    "classify_8_3.txt": ["classify", "--n", "8", "--t", "3"],
    "classify_8_3.csv": ["classify", "--n", "8", "--t", "3", "--format", "csv"],
    "fiber_dim_8_6.txt": ["fiber-dim", "--n", "8", "--t", "6"],
    "fiber_dim_8_6.json": ["fiber-dim", "--n", "8", "--t", "6", "--format", "json"],
    "fiber_dim_8_6_rank.txt": ["fiber-dim", "--n", "8", "--t", "6", "--check-rank"],
    "fiber_dim_8_6_rank.json": ["fiber-dim", "--n", "8", "--t", "6", "--check-rank", "--format", "json"],
    "hilbert_8_verify.txt": ["hilbert", "--n", "8", "--verify"],
    "cm_type_9.json": ["cm-type", "--n", "9", "--format", "json"],
    "verify_gb_n2_8.txt": ["verify-gb", "--family", "n2", "--n", "8"],
    "verify_gb_half_10.txt": ["verify-gb", "--family", "half", "--n", "10"],
    "pfaffian_8.json": ["pfaffian", "--n", "8", "--format", "json"],
    "ideal_6_2_path.txt": ["ideal", "--n", "6", "--t", "2", "--which", "path"],
    "ideal_6_2_path.json": ["ideal", "--n", "6", "--t", "2", "--which", "path", "--format", "json"],
    "ideal_6_2_sym.txt": ["ideal", "--n", "6", "--t", "2", "--which", "sym"],
    "ideal_6_2_sym.json": ["ideal", "--n", "6", "--t", "2", "--which", "sym", "--format", "json"],
    "ideal_5_2_fiber.txt": ["ideal", "--n", "5", "--t", "2", "--which", "fiber"],
    "ideal_8_6_family.txt": ["ideal", "--n", "8", "--t", "6", "--which", "family"],
    "ideal_8_4_family.json": ["ideal", "--n", "8", "--t", "4", "--which", "family", "--format", "json"],
    "ideal_7_5_family.txt": ["ideal", "--n", "7", "--t", "5", "--which", "family"],
    "ideal_7_4_sym.txt": ["ideal", "--n", "7", "--t", "4", "--which", "sym"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI))
def test_cli_output_matches_golden(name):
    code, out = invoke(*GOLDEN_CLI[name])
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (["classify", "--n", "4", "--t", "2"], 0, "fiber\n", ""),
        (["classify", "--n", "6"], 2, "", "usage: cycle-rees classify"),
        (["classify", "--n", "9", "--t", "5", "--budget-secs", "0.000001"], 3, "timeout\n", ""),
        (["cm-type", "--n", "9", "--budget-secs", "0.000001"], 3, "budget exceeded\n", ""),
        (["cm-type", "--n", "9", "--budget-secs", "0.000001", "--format", "json"], 3, '{"error": "budget exceeded"}\n', ""),
    ],
)
def test_module_entry_point(argv, code, stdout, stderr):
    proc = subprocess.run([sys.executable, "-m", "cycle_rees", *argv], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == code
    assert proc.stdout == stdout
    assert proc.stderr.startswith(stderr) if stderr else proc.stderr == ""


def _src_env() -> dict[str, str]:
    src = str(Path(cycle_rees.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_leaves_out_the_process_pool():
    """Only `table --jobs` above 1 imports the process pool machinery."""
    probe = "import sys; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    code = f"import cycle_rees; {probe}; import cycle_rees.cli; {probe}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n[]\n")
