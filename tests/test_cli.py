import json

import pytest

from hgl import cli
from hgl.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_count_hgs_c9(capsys):
    code, out = run_cli(capsys, "count-hgs", "--gamma", "C9", "--g", "C9")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["result"]["count"] == 3
    assert payload["result"]["crosscheck"] == "3"
    assert payload["complete"] is True


def test_an_gen_rejects_n6(capsys):
    code, out = run_cli(capsys, "an-gen", "--n", "6")
    assert code == 1
    payload = json.loads(out)
    assert "2 mod 4" in payload["result"]["reason"]


def test_cap_refusal_exit_4(capsys):
    # |E(2,6)| = 64 is over the enumeration cap: a refusal, not a failed check
    code, out = run_cli(capsys, "count-hgs", "--gamma", "E(2,6)", "--g", "E(2,6)")
    assert code == 4
    assert out == ""
    code, _ = run_cli(capsys, "an-gen", "--n", "6")
    assert code == 1


def test_aut_listing_cap_refused_before_listing(capsys):
    # cyclic Gamma skips the enumeration cap, and |Aut(E(2,6))| = |GL(6,2)|
    # is over the element-list cap: the chain's order refuses at once
    code, out = run_cli(capsys, "--budget", "1000", "count-hgs", "--gamma", "C64", "--g", "E(2,6)")
    assert code == 4
    assert out == ""


@pytest.mark.parametrize("command", ["a-value", "structure"])
def test_s9_refused_by_a_cap(capsys, command):
    # |S9| = 362880 is over the abelian-search and composition-factor caps
    code, out = run_cli(capsys, command, "--group", "S9")
    assert code == 4
    assert out == ""


def test_an_gen_n5(capsys):
    code, out = run_cli(capsys, "an-gen", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["certificate"]["regular"] is True


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count-hgs", "--gamma", "C9"])  # missing --g
    assert err.value.code == 2


def test_bad_spec_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["a-value", "--group", "F20"])
    assert err.value.code == 2


def test_budget_exhaustion_exit_3(capsys):
    code, _ = run_cli(capsys, "--budget", "5", "count-hgs", "--gamma", "A5", "--g", "A5")
    assert code == 3


def test_structure_command(capsys):
    code, out = run_cli(capsys, "structure", "--group", "A4xC5")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["is_soluble"] is True
    assert payload["result"]["composition_factors"] == [[2, "C2"], [2, "C2"], [3, "C3"], [5, "C5"]]


def test_a_value_command(capsys):
    code, out = run_cli(capsys, "a-value", "--group", "S6")
    assert code == 0
    assert json.loads(out)["result"]["a_value"] == 9


def test_check_a_ineq_command(capsys):
    code, out = run_cli(capsys, "check-a-ineq", "--t", "A5")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["holds"] is True
    assert payload["result"]["lhs"] == "81000"


def test_psl2_check_command(capsys):
    code, out = run_cli(capsys, "psl2-check", "--q", "8")
    assert code == 0
    assert json.loads(out)["result"]["pass"] is True


def test_lie_sweep_command(capsys):
    code, out = run_cli(capsys, "lie-sweep", "--families", "A,2A", "--max-n", "4", "--max-q", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["pass"] is True
    assert payload["result"]["e_cubed_bound"]["pass"] is True


def test_delta_p_command(capsys):
    code, out = run_cli(capsys, "delta-p", "--g", "C12", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["reports"][0]["delta"]["delta_size"] == 4


def test_enumerate_regular_command(capsys):
    code, out = run_cli(capsys, "enumerate-regular", "--g", "C4", "--candidates", "C4,E(2,2)")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == 2
    assert sorted(s["iso"] for s in payload["result"]["subgroups"]) == ["C4", "E(2,2)"]


def test_untangle_command(capsys):
    code, out = run_cli(capsys, "untangle", "--g", "S5", "--h", "stab:4", "--j", "search")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["j_order"] == 5
    assert payload["result"]["certificate"]["regular"] is True


def test_sol_insol_command(capsys):
    code, out = run_cli(capsys, "sol-insol", "--case", "i")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["ok"] is True


def test_psu42_verify_command(capsys):
    code, out = run_cli(capsys, "psu42-verify", "--no-embedding")
    assert code == 0
    payload = json.loads(out)
    result = payload["result"]
    assert result["planes"] == 27
    assert result["j_order"] == 27 and result["regular"] is True
    assert result["relations"] == {"A9": True, "B3": True, "A3_ne_I": True, "BA_eq_A4B": True}
    assert result["group_order"] == 25920


@pytest.mark.parametrize("argv", [
    ["psl2-check", "--q", "6"],
    ["psl2-check", "--q", "2"],
    ["alt-check", "--n", "4"],
])
def test_bad_check_argument_is_usage_error(argv, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


def test_alt_check_command(capsys):
    code, out = run_cli(capsys, "alt-check", "--n", "20")
    assert code == 0
    assert json.loads(out)["result"]["pass"] is True


def test_determinism_byte_identical(capsys):
    _, first = run_cli(capsys, "count-hgs", "--gamma", "C6", "--g", "S3")
    _, second = run_cli(capsys, "count-hgs", "--gamma", "C6", "--g", "S3")
    assert first == second


def test_cache_roundtrip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    _, cold = run_cli(capsys, "--cache-dir", cache_dir, "count-hgs", "--gamma", "S3", "--g", "C6")
    _, warm = run_cli(capsys, "--cache-dir", cache_dir, "count-hgs", "--gamma", "S3", "--g", "C6")
    assert cold == warm
    files = list((tmp_path / "cache").glob("*.json"))
    assert len(files) == 1
    record = json.loads(files[0].read_text())
    assert record["command"] == "count-hgs"
    assert "wall_time" in record and "cache_key" in record


def test_cache_spelling_insensitive(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    _, first = run_cli(capsys, "--cache-dir", cache_dir, "a-value", "--group", "s3")
    _, second = run_cli(capsys, "--cache-dir", cache_dir, "a-value", "--group", "S3")
    assert first == second
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1


def test_text_mode(capsys):
    code, out = run_cli(capsys, "--text", "psl2-check", "--q", "8")
    assert code == 0
    assert "pass: true" in out
    assert "ok: True" in out


def test_stale_version_cache_ignored(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    run_cli(capsys, "--cache-dir", str(cache_dir), "psl2-check", "--q", "8")
    entry = next(cache_dir.glob("*.json"))
    record = json.loads(entry.read_text())
    record["version"] = "0.0.0"
    entry.write_text(json.dumps(record))
    code, out = run_cli(capsys, "--cache-dir", str(cache_dir), "psl2-check", "--q", "8")
    assert code == 0
    assert json.loads(out)["result"]["pass"] is True


def test_other_source_hash_cache_entry_is_a_miss(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    argv = ["--cache-dir", str(cache_dir), "psl2-check", "--q", "8"]
    run_cli(capsys, *argv)
    entry = next(cache_dir.glob("*.json"))
    record = json.loads(entry.read_text())
    assert record["source"] == cli.source_digest()
    # an entry recorded under other sources, at this key: a miss
    record["source"] = "0" * 64
    record["document"] = record["document"].replace('"pass":true', '"pass":false')
    assert '"pass":false' in record["document"]
    entry.write_text(json.dumps(record))
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "cache hit" not in captured.err
    assert json.loads(captured.out)["result"]["pass"] is True
    assert json.loads(entry.read_text())["source"] == cli.source_digest()
    # changed sources give another key, so the old entry is not read
    monkeypatch.setattr(cli, "source_digest", lambda: "1" * 64)
    assert main(argv) == 0
    assert "cache hit" not in capsys.readouterr().err
    assert len(list(cache_dir.glob("*.json"))) == 2


def test_corrupt_cache_entry_is_a_miss(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    _, cold = run_cli(capsys, "--cache-dir", str(cache_dir), "count-hgs", "--gamma", "S3", "--g", "C6")
    entry = next(cache_dir.glob("*.json"))
    entry.write_text(entry.read_text()[:40])  # a truncated write
    code = main(["--cache-dir", str(cache_dir), "count-hgs", "--gamma", "S3", "--g", "C6"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == cold
    assert "warning: ignoring unreadable cache entry" in captured.err
    # the recomputed result replaced the broken entry, and no partial file is left
    assert [p.name for p in cache_dir.iterdir()] == [entry.name]
    assert json.loads(entry.read_text())["document"] == cold


def test_cache_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    code = main(["--cache-dir", str(not_a_dir), "structure", "--group", "C4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
