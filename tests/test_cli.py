"""Command-line integration: output shapes, exit codes, determinism."""

from __future__ import annotations

import concurrent.futures
import gc
import hashlib
import json
import os
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import rootarr
from rootarr import classify, cli
from rootarr.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- show --------------------------------------------------------------------


def test_show_d4(capsys):
    code, out, _ = run(capsys, "show", "--type", "D4")
    assert code == 0
    assert "12 positive roots" in out
    assert "1211" in out


def test_show_f4_json(capsys):
    code, out, _ = run(capsys, "show", "--type", "F4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["positive_root_count"] == 24
    assert data["roots"][-1]["coordinates"] == "2432"
    heights = {r["height"] for r in data["roots"]}
    assert max(heights) == 11


def test_show_a1(capsys):
    code, out, _ = run(capsys, "show", "--type", "A1")
    assert code == 0
    assert out.splitlines()[1].split()[1] == "1"


def test_show_bad_type_exit_2(capsys):
    code, _, err = run(capsys, "show", "--type", "Z9")
    assert code == 2 and "error" in err


# -- classify -----------------------------------------------------------------


def test_classify_d4_star(capsys):
    code, out, _ = run(capsys, "classify", "--type", "D4", "--ideal", "1110,1101,0111")
    assert code == 0
    data = json.loads(out)
    assert data["supersolvable"] is False
    assert data["chain_peelable"] is False
    assert data["line_closed"] is False
    assert data["koszul"] is False
    assert data["bad_ideal"]["kind"] == "star"


def test_classify_f4_height4(capsys):
    code, out, _ = run(capsys, "classify", "--type", "F4", "--ideal", "1210,1111,0211")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 13
    assert not any(
        data[k] for k in ("supersolvable", "chain_peelable", "line_closed", "koszul")
    )
    assert data["bad_ideal"]["kind"] == "f4"


def test_classify_g2_all_true(capsys):
    code, out, _ = run(capsys, "classify", "--type", "G2", "--ideal", "23")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 6
    assert all(data[k] for k in ("supersolvable", "chain_peelable", "line_closed", "koszul"))
    assert data["exponents"] == [1, 5]


def test_classify_unknown_root_exit_2(capsys):
    code, _, err = run(capsys, "classify", "--type", "D4", "--ideal", "9999")
    assert code == 2 and "error" in err


def test_classify_names_the_bad_generator(capsys):
    code, _, err = run(capsys, "classify", "--type", "D4", "--ideal", "1110,9999")
    assert code == 2 and "'9999'" in err and "1110,9999" not in err


def test_classify_separators_alone_exit_2(capsys):
    code, out, err = run(capsys, "classify", "--type", "D4", "--ideal", " ; ")
    assert code == 2 and not out
    assert "names no root" in err


def test_classify_violation_prints_the_reproducing_command(capsys, monkeypatch):
    monkeypatch.setattr(classify, "chain_peeling", lambda ideal: None)
    code, out, err = run(capsys, "classify", "--type", "D4", "--ideal", "1100,0100,0110")
    assert code == 1 and not out
    assert "predicates disagree" in err
    command = "rootarr classify --type D4 --ideal 0110,1100"  # maximal roots, root order
    assert err.rstrip().endswith(command)
    # without the broken predicate, the printed command classifies the same ideal
    monkeypatch.undo()
    code, again, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    assert json.loads(again)["ideal"] == ["0010", "0100", "1000", "0110", "1100"]


# -- survey --------------------------------------------------------------------


def test_survey_d4(tmp_path, capsys):
    out_file = tmp_path / "d4.json"
    code, _, err = run(capsys, "survey", "--type", "D4", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["schema"] == 3
    assert report["ideal_count"] == 50 == len(report["records"])
    assert report["summary"]["non_supersolvable"] == 3
    assert report["equivalence_ok"] is True
    assert "equivalence_ok   True" in err


def test_survey_b3_all_supersolvable(tmp_path, capsys):
    out_file = tmp_path / "b3.json"
    code, *_ = run(capsys, "survey", "--type", "B3", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["summary"]["supersolvable"] == report["ideal_count"] == 20


def test_survey_deterministic_modulo_timing(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "survey", "--type", "G2", "--out", str(a))
    run(capsys, "survey", "--type", "G2", "--out", str(b))
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timing_seconds"), rb.pop("timing_seconds")
    assert ra == rb


def test_survey_parallel_matches_serial(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "survey", "--type", "D4", "--out", str(a))
    run(capsys, "survey", "--type", "D4", "--jobs", "2", "--out", str(b))
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["records"] == rb["records"]


# sha256 of each whole survey report minus ``timing_seconds``, as JSON with
# sorted keys: every verdict, certificate and witness of the type.
PINNED_SURVEYS = {
    "D4": "6e7785c2f1b665f3b67266bed7c1c1089e27ca3da3ac247a4bfe1ed587e0f5c0",
    "F4": "f207fd082258ac917e4c2e1c78048299e9bd7394b7f259ce04defc21a03b26c4",
    "B4": "6fd4c7405bc0b33a440131f5159d1f03c9cb2f0c2255653d601dd951818b0ab2",
    "D5": "7c87283e82ac49986ac57992033dd9c9bcc47d78cc4528baf7f8759df2b81014",
    "A5": "b124b5600b2c77a75a8fb9ec3ef121657f25d09bdad1732996533c07f1177920",
    "C4": "c6a5fbfb39dbf88054c03215db02f66441d85315630d6fcd4b5af92559783c65",
}


@pytest.mark.parametrize("label", list(PINNED_SURVEYS))
def test_survey_records_are_pinned(label):
    report = cli.run_survey(label)
    del report["timing_seconds"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_SURVEYS[label], (
        f"the {label} survey report changed; if that is on purpose, bump "
        "cli.SCHEMA and re-record PINNED_SURVEYS"
    )


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_survey_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(capsys, "survey", "--type", "A2", "--jobs", jobs)
    assert code == 2 and jobs in err and not out


class SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that records its worker count
    and maps in this process, so no worker is started."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(100000, 2, 2), (100000, None, 1), (3, 64, 3), (64, 64, 5)],  # A2 has 5 ideals
)
def test_survey_pool_is_bounded_by_cpus_and_ideals(monkeypatch, jobs, cpus, workers):
    # run_survey imports the pool class when it needs one, from here
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_WORKER_SYSTEM", None)
    monkeypatch.setattr(SerialPool, "sizes", [])
    report = cli.run_survey("A2", jobs=jobs)
    assert SerialPool.sizes == [workers]
    assert report["records"] == cli.run_survey("A2")["records"]


def test_survey_worker_crash_names_the_ideal(capsys, monkeypatch):
    rs = cli._load_system("A2")
    full = rs.full_mask
    real = cli.classify_ideal

    def flaky(ideal):
        if ideal.mask == full:
            raise KeyError("boom")
        return real(ideal)

    monkeypatch.setattr(cli, "classify_ideal", flaky)
    with pytest.raises(RuntimeError) as exc:
        run(capsys, "survey", "--type", "A2")
    message = str(exc.value)
    assert "KeyError" in message and "'11'" in message and "A2" in message
    assert isinstance(exc.value.__cause__, KeyError)


def built_systems(monkeypatch) -> list[weakref.ref]:
    """Weak references to every system the CLI builds from now on."""
    refs = []
    real = cli.build_root_system

    def build(label):
        rs = real(label)
        refs.append(weakref.ref(rs))
        return rs

    monkeypatch.setattr(cli, "build_root_system", build)
    return refs


def test_serial_survey_releases_its_system(monkeypatch):
    refs = built_systems(monkeypatch)
    report = cli.run_survey("D4")
    assert report["equivalence_ok"] and refs
    gc.collect()
    assert cli._WORKER_SYSTEM is None
    assert all(ref() is None for ref in refs)


def test_serial_survey_releases_its_system_on_a_fault(monkeypatch):
    refs = built_systems(monkeypatch)

    def broken(ideal):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "classify_ideal", broken)
    with pytest.raises(RuntimeError):
        cli.run_survey("A3")
    gc.collect()
    assert cli._WORKER_SYSTEM is None
    assert all(ref() is None for ref in refs)


def test_classify_fault_is_not_a_usage_error(capsys, monkeypatch):
    def broken(ideal):
        raise ValueError("fault inside classification")

    monkeypatch.setattr(cli, "classify_ideal", broken)
    with pytest.raises(ValueError, match="fault inside classification"):
        main(["classify", "--type", "A2", "--ideal", "11"])
    assert "rootarr: error" not in capsys.readouterr().err


def test_verify_fault_is_not_a_usage_error(capsys, monkeypatch):
    def broken(rs):
        raise ValueError("fault inside a suite")

    monkeypatch.setitem(cli.SUITES, "rank2", broken)
    with pytest.raises(ValueError, match="fault inside a suite"):
        main(["verify", "--suite", "rank2", "--types", "A2"])
    assert "rootarr: error" not in capsys.readouterr().err


def test_survey_rank7_needs_force(capsys):
    code, _, err = run(capsys, "survey", "--type", "E7")
    assert code == 2 and "--force" in err


def test_survey_csv(tmp_path, capsys):
    out_file = tmp_path / "g2.json"
    code, *_ = run(capsys, "survey", "--type", "G2", "--out", str(out_file), "--format", "csv")
    assert code == 0
    csv_text = out_file.with_suffix(".csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("ideal,size,chain_peelable")
    assert len(lines) == 9  # header + 8 ideals


def test_survey_csv_out_ending_in_csv_exits_2(tmp_path, capsys):
    # the CSV would go to the same path and overwrite the JSON report
    out_file = tmp_path / "r.csv"
    code, out, err = run(capsys, "survey", "--type", "A2", "--format", "csv", "--out", str(out_file))
    assert code == 2 and not out
    assert str(out_file) in err and ".csv" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["R.CSV", "r.Csv"])
def test_survey_csv_out_ending_in_csv_in_any_case_exits_2_before_surveying(
    tmp_path, capsys, monkeypatch, name
):
    # on a case-insensitive file system the table R.csv would be the report R.CSV
    def never(*args, **kwargs):
        raise AssertionError("run_survey called")

    monkeypatch.setattr(cli, "run_survey", never)
    out_file = tmp_path / name
    code, out, err = run(capsys, "survey", "--type", "A2", "--format", "csv", "--out", str(out_file))
    assert code == 2 and not out
    assert str(out_file) in err and ".csv" in err
    assert not list(tmp_path.iterdir())


def test_survey_out_into_missing_directory_exits_2_before_surveying(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_survey called")

    monkeypatch.setattr(cli, "run_survey", never)
    missing = tmp_path / "no" / "such"
    code, out, err = run(capsys, "survey", "--type", "A3", "--out", str(missing / "r.json"))
    assert code == 2 and not out
    assert str(missing) in err and "does not exist" in err
    assert not list(tmp_path.iterdir())


def test_survey_out_into_a_directory_exits_2_before_surveying(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_survey called")

    monkeypatch.setattr(cli, "run_survey", never)
    code, out, err = run(capsys, "survey", "--type", "A2", "--out", str(tmp_path))
    assert code == 2 and not out
    assert str(tmp_path) in err and "is a directory" in err
    assert not list(tmp_path.iterdir())


def test_survey_csv_table_into_a_directory_exits_2_before_surveying(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("run_survey called")

    monkeypatch.setattr(cli, "run_survey", never)
    (tmp_path / "r.csv").mkdir()
    out_file = tmp_path / "r.json"
    code, out, err = run(capsys, "survey", "--type", "A2", "--format", "csv", "--out", str(out_file))
    assert code == 2 and not out
    assert str(tmp_path / "r.csv") in err and "is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


@pytest.mark.parametrize("fmt, written", [("json", ["r.json"]), ("csv", ["r.csv", "r.json"])])
def test_survey_writes_only_its_report(tmp_path, capsys, monkeypatch, fmt, written):
    # no records persist between runs, whatever the environment names
    monkeypatch.setenv("ROOTARR_CACHE_DIR", str(tmp_path / "cache"))
    for _ in range(2):
        code, *_ = run(capsys, "survey", "--type", "B2", "--format", fmt, "--out", str(tmp_path / "r.json"))
        assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == written


# -- verify ----------------------------------------------------------------------


def test_verify_chainroot_b2(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "chainroot", "--types", "B2")
    assert code == 0
    assert "chainroot B2: PASS" in out


def test_verify_twocases_a3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "twocases", "--types", "A3")
    assert code == 0
    assert "PASS" in out


def test_verify_exponents_g2(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "exponents-vs-chi", "--types", "G2")
    assert code == 0


def test_verify_all_default_types(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out


def test_verify_repeated_suite_runs_once(capsys):
    # a2 and A2 are one type; each type and suite runs once, in order of first mention
    code, out, _ = run(
        capsys, "verify", "--types", "G2,A2,g2,a2", "--suite", "rank2", "--suite", "twocases", "--suite", "rank2"
    )
    assert code == 0
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["rank2", "G2:"], ["twocases", "G2:"], ["rank2", "A2:"], ["twocases", "A2:"]
    ]


def test_verify_empty_type_list_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--types", ",")
    assert code == 2
    assert out == ""
    assert "names no type" in err


def test_verify_bad_label_exits_2_before_any_suite(capsys):
    code, out, err = run(capsys, "verify", "--types", "A2,,X9")
    assert code == 2
    assert out == ""  # A2's suites did not run
    assert "'X9'" in err


def test_every_exported_name_resolves():
    assert all(hasattr(rootarr, name) for name in rootarr.__all__)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_import_loads_no_dataclasses_fractions_inspect_or_multiprocessing():
    # every start compiles or loads these: dataclasses alone costs several
    # ms, and without site no other stdlib import of the package pulls
    # them in; only a survey with --jobs above 1 loads multiprocessing
    src = Path(rootarr.__file__).resolve().parent.parent
    banned = "{'dataclasses', 'fractions', 'inspect', 'multiprocessing'}"
    probe = f"import sys, rootarr.cli; print(*sorted({banned} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []
