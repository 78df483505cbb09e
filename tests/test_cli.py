import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from realforms.cli import main, read_config
from realforms.errors import IOFormatError, VerificationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# fast happy paths


def test_algebra_hurwitz_json(capsys):
    code, out, err = run(capsys, "algebra", "C")
    assert code == 0 and not err
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["checks"]["composition"]["tuples"] > 0


def test_algebra_symmetric_has_both_checks(capsys):
    code, out, _ = run(capsys, "algebra", "pC")
    data = json.loads(out)
    assert code == 0
    assert "symmetric" in data["checks"]
    assert "composition" in data["checks"]


def test_algebra_albert_small_factor(capsys):
    code, out, _ = run(capsys, "algebra", "albert:pC")
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 9
    assert data["checks"]["jordan_sampled"]["seed"] == 20260814


def test_construct_small_magic_square(capsys):
    code, out, _ = run(capsys, "construct", "--s", "pC", "--sp", "R")
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 8
    assert data["signature"] == -8
    # 3 generators: the C(8, 3) - C(5, 3) triples that meet them are summed
    assert data["jacobi"] == {"generators": [0, 5, 2], "triples": 46}


def test_satake_compact_ascii(capsys):
    code, out, _ = run(capsys, "satake", "f4m52")
    assert code == 0
    assert "==>" in out
    assert out.count("*") == 4


def test_satake_compact_json(capsys):
    code, out, _ = run(capsys, "satake", "e6m78", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["diagram"]["meta"] == {"real_rank": 0, "signature": -78}
    assert all(n["filled"] for n in data["diagram"]["nodes"])
    assert data["restricted"]["rows"] == [] and data["restricted"]["mult_sum"] == 0
    assert (data["checks"]["black_nodes"], data["checks"]["roots"]) == (6, 72)
    assert data["checks"]["cartan_involution"]["signature"] == -78


@pytest.mark.parametrize("model", ["e6m14", "e6m26", "e6p2", "e6p6", "e6m78"])
def test_satake_json_is_one_document(capsys, model):
    code, out, _ = run(capsys, "satake", model, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"diagram", "restricted", "checks"}
    assert data["checks"]["rank_identity"] is True
    assert data["restricted"]["mult_sum"] == data["checks"]["mult_sum"]


@pytest.mark.parametrize("model,sigma", [("f4p4", "F4"), ("f4m20", "BC1")])
def test_satake_f4_real_forms(capsys, model, sigma):
    code, out, err = run(capsys, "satake", model)
    assert code == 0 and not err
    assert f"restricted system: {sigma} " in out


def test_cartan_decomposition_of_the_compact_e6(capsys):
    code, out, _ = run(capsys, "roots", "verify-cartan-decomp", "--model", "e6m78")
    data = json.loads(out)
    assert code == 0
    assert (data["dim_t"], data["dim_p"], data["signature"]) == (78, 0, -78)
    assert data["cartan_in_p"] == []


def test_satake_deterministic_output(capsys):
    _, first, _ = run(capsys, "satake", "e6m78", "--format", "dot")
    _, second, _ = run(capsys, "satake", "e6m78", "--format", "dot")
    assert first == second


def test_satake_out_dir(tmp_path, capsys):
    code, out, _ = run(capsys, "satake", "f4m52", "--out", str(tmp_path))
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        f"f4m52.{part}" for part in
        ("satake.json", "satake.dot", "satake.txt", "restricted.json", "restricted.txt")
    }
    assert out.count("wrote ") == 5
    text = (tmp_path / "f4m52.satake.json").read_text()
    assert json.loads(text)["meta"]["signature"] == -52


def test_out_on_an_existing_file_exit_code(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code, out, err = run(capsys, "algebra", "pC", "--out", str(target))
    assert code == 4 and not out
    payload = json.loads(err)
    assert payload["error"] == "IOFormatError"
    assert payload["exit_code"] == 4


def test_table_ei_row_only(capsys):
    code, out, _ = run(capsys, "table", "--only", "e6p6", "--json")
    rows = json.loads(out)["rows"]
    assert code == 0
    assert len(rows) == 1
    assert rows[0]["computed"] is True and rows[0]["sigma_type"] == "E6"
    assert [r["members"] for r in rows[0]["rows"]] == [[f"a{k}"] for k in range(1, 7)]


def test_roots_restricted_ei_alias(capsys):
    # e6(6) is split: every Cartan generator is real on every root
    code, out, _ = run(capsys, "roots", "restricted", "--model", "EI")
    data = json.loads(out)
    assert code == 0
    assert data["model"] == "e6p6" and data["a_indices"] == [0, 1, 2, 3, 4, 5]
    assert data["mult_sum"] == 72


# ---------------------------------------------------------------------------
# error paths and exit codes


def test_unknown_model_exit_code(capsys):
    code, out, err = run(capsys, "roots", "decompose", "--model", "nope")
    assert code == 3 and not out
    payload = json.loads(err)
    assert payload["error"] == "ConstructionError"
    assert payload["message"] == (
        "unknown model 'nope'; known: e6m14, e6m26, e6m78, e6p2, e6p6, f4m20, f4m52, f4p4"
    )
    assert payload["exit_code"] == 3
    assert payload["witness"] is None


def test_verification_error_reports_witness(capsys, monkeypatch):
    import realforms.pipeline as pipeline

    def failing_jacobi(L):
        raise VerificationError(f"{L.name}: Jacobi fails", witness=(0, 1, 2))

    monkeypatch.setattr(pipeline, "certify_jacobi", failing_jacobi)
    code, out, err = run(capsys, "construct", "--s", "pC", "--sp", "R")
    assert code == 2 and not out
    payload = json.loads(err)
    assert payload["error"] == "VerificationError"
    assert payload["witness"] == [0, 1, 2]


def test_cli_imports_without_numpy():
    import realforms

    src = str(Path(realforms.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import sys; sys.modules['numpy'] = None; import realforms.cli"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv", [["lie", "nope"], ["satake", "e6m78", "--format", "svg"], ["bogus"], []]
)
def test_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_roots_without_model(capsys):
    code, _, err = run(capsys, "roots", "decompose")
    assert code == 3
    assert "no model named" in json.loads(err)["message"]


def test_unknown_algebra_exit_code(capsys):
    code, _, err = run(capsys, "algebra", "sedenions")
    assert code == 3
    assert "unknown algebra" in json.loads(err)["message"]


def test_bad_eps_exit_code(capsys):
    code, _, err = run(capsys, "construct", "--s", "pC", "--eps", "1,2,1")
    assert code == 3


def test_missing_config_exit_code(capsys):
    code, _, err = run(capsys, "--config", "/nonexistent.cfg", "satake", "f4m52")
    assert code == 4
    assert json.loads(err)["error"] == "IOFormatError"


def test_table_unknown_only_exit_code(capsys):
    code, _, err = run(capsys, "table", "--only", "f4m52")
    assert code == 3


# ---------------------------------------------------------------------------
# config files


def test_config_supplies_model_and_format(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# satake job\nmodel = e6m78\nformat = json\n")
    code, out, _ = run(capsys, "--config", str(cfg), "satake")
    assert code == 0
    assert json.loads(out)["diagram"]["meta"]["signature"] == -78


def test_config_cli_argument_wins(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("model = e6m78\n")
    code, out, _ = run(capsys, "--config", str(cfg), "satake", "f4m52")
    assert code == 0
    assert out.count("*") == 4  # the f4 diagram, not the e6 one


def test_config_cli_format_wins(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("format = json\n")
    code, out, _ = run(capsys, "--config", str(cfg), "satake", "e6m78", "--format", "ascii")
    assert code == 0
    assert not out.lstrip().startswith("{")
    code, ascii_out, _ = run(capsys, "satake", "e6m78")
    assert out == ascii_out


def test_config_bad_format_reaches_renderer(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("format = svg\n")
    code, _, err = run(capsys, "--config", str(cfg), "satake", "f4m52")
    assert code == 4
    assert "unknown format" in json.loads(err)["message"]


def test_config_supplies_construct_s(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("s = pC\n")
    code, out, _ = run(capsys, "--config", str(cfg), "construct")
    assert code == 0
    data = json.loads(out)
    assert data["construction"] == "magic(pC,R,1,1,1)"
    assert data["dim"] == 8


def test_config_cli_s_wins(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("s = pO\nsp = pC\neps = 1, -1, 1\n")
    code, out, _ = run(capsys, "--config", str(cfg), "construct", "--s", "pR")
    assert code == 0
    data = json.loads(out)
    # --s from the command line, sp and eps from the config
    assert data["construction"] == "magic(pR,pC,1,-1,1)"
    assert data["dim"] == 8  # magic(pO,pC,...) would be 78


def test_construct_without_s_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("sp = pC\n")
    for argv in (["construct"], ["--config", str(cfg), "construct"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err


def test_construct_tits_rejects_sp_and_eps(tmp_path, capsys):
    # the derivation model is built from S alone, with S' = R and +++ signs
    cfg = tmp_path / "job.cfg"
    for text, extra in (
        ("", ("--sp", "pO")),
        ("", ("--eps", "1,-1,1")),
        ("sp = pC\n", ()),
        ("eps = -1,1,1\n", ()),
    ):
        cfg.write_text(text)
        code, out, err = run(
            capsys, "--config", str(cfg), "construct", "--s", "pC", "--tits", *extra
        )
        assert code == 3 and not out
        assert json.loads(err)["error"] == "ConstructionError"
    code, out, _ = run(capsys, "construct", "--s", "pC", "--tits", "--sp", "R", "--eps", "1,1,1")
    assert code == 0
    assert json.loads(out)["construction"] == "tits(pC)"


def test_cartan_option_and_config_key_are_gone(tmp_path, capsys):
    # hs is read off theta, so roots takes no Cartan choice
    with pytest.raises(SystemExit) as exc:
        main(["roots", "verify-cartan-decomp", "--model", "e6m14", "--cartan", "preset"])
    assert exc.value.code == 1
    assert "--cartan" in capsys.readouterr().err
    cfg = tmp_path / "job.cfg"
    cfg.write_text("cartan = preset\n")
    code, out, err = run(
        capsys, "--config", str(cfg), "roots", "restricted", "--model", "e6m14"
    )
    assert code == 4 and not out
    assert "unknown key 'cartan'" in json.loads(err)["message"]


def test_read_config_parser(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "model = e6m14   # trailing comment\n"
        "\n"
        "eps = 1,-1,1\n"
        "only = e6m26, e6p6\n"
        "out = /tmp/somewhere\n"
    )
    job = read_config(str(cfg))
    assert job["model"] == "e6m14"
    assert job["eps"] == "1,-1,1"
    assert job["only"] == ["e6m26", "e6p6"]
    assert job["out"] == "/tmp/somewhere"


def test_read_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("solver = magic\n")
    with pytest.raises(IOFormatError, match="unknown key"):
        read_config(str(cfg))


def test_read_config_rejects_bare_line(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(IOFormatError, match="expected key = value"):
        read_config(str(cfg))


def test_config_that_is_not_utf8_exit_code(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "--config", str(cfg), "satake")
    assert code == 4 and not out
    error = json.loads(err)
    assert error["error"] == "IOFormatError"
    assert error["message"].startswith(f"cannot read config {cfg}:")
    assert error["witness"] is None


def test_config_eps_is_normalised_and_checked_on_read(tmp_path, capsys):
    # construct prints the eps option itself, so a config's +1 and spaces
    # must not reach the output; a bad eps fails even commands without eps
    cfg = tmp_path / "job.cfg"
    cfg.write_text("eps = +1, -1, +1\n")
    code, out, _ = run(capsys, "--config", str(cfg), "construct", "--s", "pC", "--sp", "pO")
    assert code == 0
    assert json.loads(out)["construction"] == "magic(pC,pO,1,-1,1)"
    cfg.write_text("eps = 1,1\n")
    code, _, err = run(capsys, "--config", str(cfg), "satake", "e6m14")
    assert code == 3
    assert json.loads(err)["error"] == "ConstructionError"


# ---------------------------------------------------------------------------
# golden output: sha256 of the stdout of two e6 builds, of the two Okubo
# algebras (whose constants carry sqrt3 and i), of a root decomposition, of
# the Satake diagrams of the four noncompact e6 forms and of e6(-78), of the
# combined table, of two Cartan decomposition reports, of the signature
# table, of the e6m26 summary and of one twisted inline square; a change to the
# scalar or vector representation, to the Bourbaki labelling or to the
# renderer must not move a byte


GOLDEN_SHA256 = {
    ("build", "e6m14"): "b4532da85ae93c35fc8641fd8335d18deb5e68c6ad3e96ea29d83f623ec683e0",
    ("build", "e6m26"): "1aad7e4e9264ad4f620751a269ceb41930af12c15b059be04d281253efd75abb",
    ("algebra", "Ok"): "a811bd251c881c2f4a93f4a9fd96dd9276a0f9833c1c49945cc07b1b3914c775",
    ("algebra", "Oks"): "b7f821f4cf7a9e18f425c4b87aea8961b47ae53c8055316d685d5aa165f3ca14",
    ("construct", "--s", "Ok", "--sp", "R"):
        "f0658addf89c27f6b7f0fb660b0d306eff28152c0303772718e438d46d41425c",
    ("construct", "--s", "Ok", "--tits"):
        "3853c0be0ea68f7e2f1b77445cdaf8dc0f2a1bee1e877cc6b9d1b60cab48e7bf",
    ("roots", "decompose", "--model", "e6m26"):
        "e9b53e52f8c9309ebfa1fd300e49351b88f51c2cba15cf10ab33b51113924821",
    ("satake", "e6p2", "--format", "json"):
        "91f8bf1981ee37c145712a9edc6d116d675b0fc6906cf27793c7d476f436b7dd",
    ("satake", "e6m14"):
        "de836a6256f75ae53ba29e405f61fb6e5ba813944028b81ece42e3a2dc927b78",
    ("satake", "e6m14", "--format", "json"):
        "69e677a1af5362ec18f8da373918c28819e1bbb0f5d5d4cca2d671cc00ac19e4",
    ("satake", "e6m26", "--format", "json"):
        "7706c3ea6279fa6bd8b419b109bbe76ca2c00f3e330c87e9adf26e74adc1759d",
    ("satake", "e6p6", "--format", "json"):
        "ca9dc91343e94b28e9fc01515452b0bc690d3f81e3787a526df2b4eafcd34c2b",
    ("satake", "e6m78"):
        "0e652da14122b7df07e5b86707e57ead14876a8e4f1006010357cdab6f4ef031",
    ("table", "--json"):
        "0d29de4d6c3b1b6cce0ef8363b575ab5fe00dfab6fe1f1e30206b819101f1a98",
    ("roots", "verify-cartan-decomp", "--model", "e6p2"):
        "6e7f6300dbd851398754392137c3f0c74c311ea62c4f8a14327fabf339392654",
    ("roots", "verify-cartan-decomp", "--model", "e6p6"):
        "d9f2fc43bc82a6101de908260f7fc06b1d35310ea1e6de8640a2ff97a8a7697a",
    ("signatures",):
        "2361ac6bccbf0300dd8bf82a47351ab6935cf1ec4e1354f923f388f815e27692",
    ("signatures", "--json"):
        "0b711b207ba441e94925aeea511dd9bdcfe2572983df083b565882a8074c13b2",
    ("lie", "e6m26"):
        "bda03c5ff1238f76692fb66dcc85afef704cef1b26769ac4b8713d844d56165e",
    ("construct", "--s", "pOs", "--sp", "pC", "--eps", "1,-1,1"):
        "b091d75c6de9481b2904ccc56be9d78232d8bcd5810abfee9e2d4ecc48dec304",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256), ids=" ".join)
def test_golden_output(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[argv]
