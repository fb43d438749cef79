import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dyckshift import cli, measures, verification
from dyckshift.cli import main
from dyckshift.coding import SAMPLERS, PointWindow
from dyckshift.words import Word, count_language

from conftest import GOLDEN_WINDOWS, walked_extension_rows


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


# ------------------------------------------------------------------ reduce


def test_reduce_balanced_word(capsys):
    rc, out, _ = run(capsys, "reduce", "a1 b1")
    assert rc == 0
    assert out.strip() == "Λ"


def test_reduce_annihilating_word(capsys):
    rc, out, _ = run(capsys, "reduce", "a1 b2")
    assert rc == 0
    assert out.strip() == "0"


def test_reduce_empty_word_by_default(capsys):
    rc, out, _ = run(capsys, "reduce")
    assert rc == 0
    assert out.strip() == "Λ"


def test_reduce_json(capsys):
    payload = run_json(capsys, "reduce", "a1 a2 b2", "--json")
    assert payload == {
        "command": "reduce",
        "m": 2,
        "word": "a1 a2 b2",
        "normal_form": "a1",
        "is_zero": False,
        "is_balanced": False,
    }


def test_reduce_bad_token(capsys):
    rc, _, err = run(capsys, "reduce", "a1 c2")
    assert rc == 2
    assert err.startswith("error:")
    assert "at character 3" in err


def test_reduce_out_of_range_type(capsys):
    rc, _, err = run(capsys, "reduce", "a3", "--m", "2")
    assert rc == 2
    assert "error:" in err


def test_single_type_alphabet_is_gated(capsys):
    rc, _, err = run(capsys, "reduce", "a1 b1", "--m", "1")
    assert rc == 2
    rc, out, _ = run(capsys, "reduce", "a1 b1", "--m", "1", "--allow-m1")
    assert rc == 0
    assert out.strip() == "Λ"


@pytest.mark.parametrize(
    "argv", [("count", "--length", "3", "--m", "0"), ("entropy", "--n", "2", "--m", "-1")]
)
def test_empty_alphabets_are_refused(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"error: need at least one bracket type, got m={argv[-1]}\n"


def test_single_type_error_names_the_flag(capsys):
    rc, _, err = run(capsys, "member", "a1", "--m", "1")
    assert rc == 2
    assert "--allow-m1" in err
    assert "allow_single_type" not in err


# ------------------------------------------------------------------ member


def test_member_true_false(capsys):
    rc, out, _ = run(capsys, "member", "b2 a1")
    assert (rc, out.strip()) == (0, "true")
    rc, out, _ = run(capsys, "member", "a1 b2")
    assert (rc, out.strip()) == (0, "false")


def test_member_json(capsys):
    payload = run_json(capsys, "member", "a1 b2", "--json")
    assert payload["member"] is False
    assert payload["command"] == "member"


# ------------------------------------------------------------------- count


def test_count_length(capsys):
    rc, out, _ = run(capsys, "count", "--length", "14")
    assert (rc, out.strip()) == (0, "18083712")


def test_count_balanced(capsys):
    rc, out, _ = run(capsys, "count", "--balanced", "3")
    assert (rc, out.strip()) == (0, "40")


def test_count_json(capsys):
    payload = run_json(capsys, "count", "--length", "4", "--m", "3", "--json")
    assert payload == {"command": "count", "m": 3, "count": 666, "length": 4}


@pytest.fixture
def digit_cap():
    """Python's default 4300-digit cap on int-to-text conversion, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-text digit cap before Python 3.10.7")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def test_count_prints_exact_values_past_the_digit_cap(capsys, digit_cap):
    rc, out, err = run(capsys, "count", "--length", "10000")
    rc_json, out_json, _ = run(capsys, "count", "--length", "10000", "--json")
    assert (rc, rc_json, err) == (0, 0, "")
    assert sys.get_int_max_str_digits() == digit_cap
    sys.set_int_max_str_digits(0)  # to read the answer back; the fixture restores the cap
    expected = count_language(10000, 2)
    assert len(str(expected)) > digit_cap
    assert out == f"{expected}\n"
    assert json.loads(out_json) == {"command": "count", "m": 2, "count": expected, "length": 10000}


def test_digit_cap_holds_while_arguments_are_parsed(capsys, digit_cap):
    rc, out, err = run(capsys, "count", "--length", "9" * (digit_cap + 1))
    assert (rc, out) == (2, "")
    assert "invalid int value" in err
    assert sys.get_int_max_str_digits() == digit_cap
    rc, _, _ = run(capsys, "reduce", "a3")  # a command that fails restores it too
    assert rc == 2
    assert sys.get_int_max_str_digits() == digit_cap


def test_count_flags_are_exclusive(capsys):
    rc, _, err = run(capsys, "count", "--length", "3", "--balanced", "2")
    assert rc == 2
    rc, _, err = run(capsys, "count")
    assert rc == 2


# ----------------------------------------------------------------- measure


def test_measure_prints_exact_value(capsys):
    rc, out, _ = run(capsys, "measure", "a1 b1")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "1/8"
    assert lines[1].startswith("# ~ 0.125")
    assert "(1/(2*sqrt(2)))^2" in lines[2]


def test_measure_of_empty_cylinder(capsys):
    rc, out, _ = run(capsys, "measure", "a1 b2")
    assert rc == 0
    assert out.splitlines()[0] == "0"


def test_measure_json(capsys):
    payload = run_json(capsys, "measure", "a1 b1", "--json")
    assert payload["value"] == "1/8"
    assert payload["decimal"] == 0.125
    assert payload["balanced"] is True
    assert payload["balanced_form"] == "(1/(2*sqrt(2)))^2"


@pytest.mark.parametrize(
    "word,name,value",
    [("a1 b1", "plus", "1/9"), ("b1", "plus", "1/6"), ("b1", "minus", "1/3")],
    ids=["plus", "plus-loose-closer", "minus"],
)
def test_measure_prices_plus_and_minus_exactly(capsys, word, name, value):
    rc, out, _ = run(capsys, "measure", word, "--measure", name)
    assert rc == 0
    assert out.splitlines()[0] == value
    assert "balanced" not in out
    payload = run_json(capsys, "measure", word, "--measure", name, "--json")
    assert (payload["measure"], payload["value"]) == (name, value)
    assert "balanced_form" not in payload


# ------------------------------------------------------------------ sample


def test_sample_dump_format(capsys):
    rc, out, _ = run(capsys, "sample", "--window", "0:3", "--count", "5", "--seed", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# sampler=tilde m=2 window=0:3 seed=3 count=5"
    body = lines[1:]
    assert len(body) == 5
    assert all(line.startswith("0 3 ") for line in body)


def test_sample_accepts_negative_windows(capsys):
    rc, out, _ = run(capsys, "sample", "--window", "-3:3", "--count", "2")
    assert rc == 0
    assert out.splitlines()[1].startswith("-3 3 ")


def test_sample_is_reproducible(capsys):
    args = ("sample", "--window", "-2:4", "--count", "8", "--seed", "11", "--json")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    payload = json.loads(first[1])
    assert payload["seed"] == 11
    assert payload["count"] == len(payload["samples"]) == 8
    assert set(payload) == {"command", "measure", "m", "window", "seed", "count", "samples"}
    assert all(set(x) == {"lo", "hi", "word"} for x in payload["samples"])


def test_sample_prints_checked_windows_over_the_golden_grid(capsys):
    """Every window that ``dyckshift sample`` prints, text and ``--json``, passes
    ``PointWindow``'s public validation and is the sampler's window."""
    for name in sorted(SAMPLERS):
        for m in (1, 2, 3):
            for lo, hi in GOLDEN_WINDOWS:
                args = ("sample", "--measure", name, "--m", str(m), "--window", f"{lo}:{hi}", "--count", "8")
                args += ("--allow-m1",) if m == 1 else ()
                lines = [line.split(" ", 2) for line in run(capsys, *args, "--seed", "1")[1].splitlines()[1:]]
                samples = run_json(capsys, *args, "--seed", "1", "--json")["samples"]
                expected = SAMPLERS[name](m, lo, hi, seed=1, count=8)
                for (a, b, text), x, want in zip(lines, samples, expected, strict=True):
                    assert (int(a), int(b), text) == (x["lo"], x["hi"], x["word"]) == (lo, hi, want.text())
                    assert PointWindow(m, lo, hi, Word.parse(text, m).codes).codes == want.codes


@pytest.mark.parametrize(
    "argv,fused",
    [
        (["sample", "--window"], ["sample", "--window"]),
        (["--window", "--window"], ["--window=--window"]),
        (["--window=1:2", "-4:4"], ["--window=1:2", "-4:4"]),
        (["--seed", "--window", "-4:4"], ["--seed", "--window=-4:4"]),
    ],
    ids=["trailing", "twice", "already-fused", "after-seed"],
)
def test_window_value_is_fused_to_its_flag(argv, fused):
    assert cli._fuse_window_flag(argv) == fused


def test_sample_window_syntax_errors(capsys):
    for bad in ("3", "1:", "4:1", "a:b"):
        rc, _, err = run(capsys, "sample", "--window", bad)
        assert rc == 2, bad


def test_sample_rejects_windows_missing_the_origin(capsys):
    rc, _, err = run(capsys, "sample", "--window", "1:4")
    assert rc == 2
    assert "origin" in err


def test_sample_rejects_negative_count(capsys):
    rc, out, err = run(capsys, "sample", "--window", "0:1", "--count", "-5")
    assert rc == 2
    assert out == ""
    assert "--count" in err


def test_sample_rejects_negative_max_extension(capsys):
    # windows are exact, so there is no extension budget to set, at any value
    for value in ("-1", "5"):
        rc, out, err = run(capsys, "sample", "--window", "0:1", "--max-extension", value)
        assert rc == 2
        assert out == ""
        assert "unrecognized arguments: --max-extension" in err


# ----------------------------------------------------------------- entropy


def test_entropy_table(capsys):
    rc, out, _ = run(capsys, "entropy", "--n", "4")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0].startswith("# m=2")
    assert len(lines) == 7  # comment, header, rows n=0..4
    assert lines[2].split()[0] == "0"


def test_entropy_table_gap_column(capsys):
    """The last column is h_n's gap to its limit log 2 + (1/2) log m, i.e. (p_n/2) log m."""
    for m in (2, 3):
        rc, out, _ = run(capsys, "entropy", "--n", "11", "--m", str(m))
        assert rc == 0
        lines = out.splitlines()
        assert lines[1].split()[-3:] == ["gap", "to", "limit"]
        assert len(lines) == 14  # comment, header, rows n=0..11
        for line in lines[2:]:
            _, _, _, p_nonneg, gap = line.split()
            assert float(gap) == pytest.approx(float(Fraction(p_nonneg)) / 2 * math.log(m), abs=5e-7)
        if m == 2:  # the figure entropy-limit-gap reports
            assert lines[-1].split()[-1] == "0.078182"


def test_entropy_json_row(capsys):
    payload = run_json(capsys, "entropy", "--n", "11", "--json")
    assert payload == {
        "n": 11,
        "H_n": {"log2": "11", "logm": "1973/256"},
        "h_n": {"log2": "1", "logm": "1255/2048"},
        "p_nonneg": "231/1024",
        "h_n_nats": payload["h_n_nats"],
    }
    assert abs(payload["h_n_nats"] - 1.117903) < 1e-6


def test_entropy_json_fields(capsys):
    payload = run_json(capsys, "entropy", "--n", "3", "--json")
    assert payload["n"] == 3
    assert payload["H_n"] == {"log2": "3", "logm": "5/2"}
    assert payload["h_n"] == {"log2": "1", "logm": "11/16"}
    assert payload["p_nonneg"] == "3/8"
    assert payload["h_n_nats"] == pytest.approx((1 + Fraction(11, 16)) * math.log(2))


def test_entropy_csv(capsys):
    rc, out, _ = run(capsys, "entropy", "--n", "3", "--csv")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "n,H_log2,H_logm,h_log2,h_logm,h_nats,p_nonneg"
    assert len(lines) == 5
    assert lines[1].startswith("0,0,0,1,")


def test_entropy_refuses_csv_with_json(capsys):
    rc, out, err = run(capsys, "entropy", "--n", "3", "--json", "--csv")
    assert rc == 2
    assert out == ""
    assert err == "error: --csv and --json exclude each other\n"


def test_entropy_table_counts_each_length_once(capsys, monkeypatch):
    """Row n needs the patterns of n and n + 1; neighbouring rows share them."""
    seen = []
    real = measures._pattern_stats
    monkeypatch.setattr(measures, "_pattern_stats", lambda n: seen.append(n) or real(n))
    rc, _, _ = run(capsys, "entropy", "--n", "30", "--m", "3")
    assert rc == 0
    assert sorted(seen) == list(range(32))


def test_entropy_rejects_negative_n(capsys):
    rc, out, err = run(capsys, "entropy", "--n", "-1")
    assert rc == 2
    assert out == ""
    assert "argument --n: must be >= 0, got -1" in err


def test_entropy_beyond_enumeration(capsys):
    payload = run_json(capsys, "entropy", "--n", "25", "--json")
    assert payload["p_nonneg"] == str(Fraction(math.comb(25, 12), 2**25))


# -------------------------------------------------------------- extensions


def test_extensions_listing(capsys):
    rc, out, _ = run(capsys, "extensions", "a1", "--max-len", "4")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0].startswith("# word='a1'")
    pairs = lines[1:]
    assert len(pairs) == 3  # 1 completion at length 2, 2 at length 4
    assert pairs[0] == "Λ | b1"
    assert all(" | " in line for line in pairs)


def test_extensions_listing_cap(capsys):
    rc, out, _ = run(capsys, "extensions", "a1", "--max-len", "8", "--limit", "4")
    lines = out.splitlines()
    assert rc == 0
    assert sum(" | " in l for l in lines) == 4
    assert lines[-1].startswith("# listing capped at 4")
    # --limit 0: a completion, if there is one, marks the listing truncated
    capped = run_json(capsys, "extensions", "a1", "--limit", "0", "--json")
    assert (capped["listing_truncated"], capped["pairs"]) == (True, [])
    none = run_json(capsys, "extensions", "a1 a2", "--max-len", "3", "--limit", "0", "--json")
    assert (none["listing_truncated"], none["pairs"]) == (False, [])


def test_extensions_mass_table(capsys):
    rc, out, _ = run(capsys, "extensions", "a1", "--mass", "--max-len", "10")
    assert rc == 0
    assert "93/512" in out  # partial sum through length 8
    assert len(out.splitlines()) == 7


def test_extensions_mass_json_routes_agree(capsys):
    fast = run_json(capsys, "extensions", "a1", "--mass", "--max-len", "8", "--json")
    walked = walked_extension_rows(Word.parse("a1", 2), 8)
    assert fast["rows"] == [
        {
            "total_len": r.total_len,
            "count": r.count,
            "added": str(r.added),
            "partial": str(r.partial),
            "residual": str(r.residual),
        }
        for r in walked
    ]
    assert fast["cylinder_mass"] == "1/4"
    assert fast["rows"][0] == {
        "total_len": 2,
        "count": 1,
        "added": "1/8",
        "partial": "1/8",
        "residual": "1/8",
    }


def test_extensions_mass_horizon(capsys):
    rc, out, _ = run(capsys, "extensions", "a1 a2", "--mass", "--max-len", "12", "--ratio", "1/20")
    assert rc == 0
    assert out.splitlines()[-1] == "# residual first drops below 1/20 of the cylinder mass at length 1020"
    payload = run_json(capsys, "extensions", "a1", "--mass", "--max-len", "4", "--ratio", "1/4", "--json")
    assert payload["horizon"] == {"ratio": "1/4", "total_len": 10}
    assert len(payload["rows"]) == 2
    plain = run_json(capsys, "extensions", "a1", "--mass", "--max-len", "4", "--json")
    assert "horizon" not in plain


def test_extensions_mass_horizon_past_the_cap(capsys):
    rc, out, err = run(capsys, "extensions", "a1 a2", "--mass", "--ratio", "1/1000000")
    assert rc == 2
    assert out == ""
    assert err == "error: no convergence below 1/1000000 by length 1048578\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--mass", "--ratio", "0"),
        ("--mass", "--ratio", "-1/2"),
        ("--mass", "--ratio", "1/0"),
        ("--mass", "--ratio", "half"),
        ("--ratio", "1/20"),
    ],
)
def test_extensions_ratio_is_checked(capsys, argv):
    rc, _, err = run(capsys, "extensions", "a1", *argv)
    assert rc == 2
    assert "ratio" in err


def test_extensions_rejects_negative_limit(capsys):
    rc, out, err = run(capsys, "extensions", "a1", "--limit", "-1")
    assert rc == 2
    assert out == ""
    assert "argument --limit: must be >= 0, got -1" in err


@pytest.mark.parametrize("mode", [(), ("--mass",), ("--mass", "--json")])
def test_extensions_refuse_a_max_len_shorter_than_the_word(capsys, mode):
    rc, out, err = run(capsys, "extensions", "a1 a2", "--max-len", "1", *mode)
    assert rc == 2
    assert out == ""
    assert err == "error: max_len=1 is shorter than the word (2)\n"


def test_extensions_reject_zero_words(capsys):
    rc, _, err = run(capsys, "extensions", "a1 b2")
    assert rc == 2
    assert err == "error: 'a1 b2' reduces to zero\n"
    rc, _, err = run(capsys, "extensions", "a1 b2", "--mass")
    assert rc == 2
    assert err == "error: 'a1 b2' reduces to zero\n"


# ------------------------------------------------------------------ verify


@pytest.fixture
def cached_checks(monkeypatch, exact_check_results):
    """Serve the exact checks from the session's single run; the CLI around them stays real.

    That run is at the default seed 7, as is every test that uses this; of the
    exact checks only block-swap-exact reads the seed.
    """
    monkeypatch.setattr(verification, "run_check", lambda key, seed: exact_check_results[key])


@pytest.mark.usefixtures("cached_checks")
def test_verify_exact_suite_json(capsys, exact_check_results):
    rc, out, _ = run(capsys, "verify", "--suite", "exact", "--json")
    payload = json.loads(out)
    assert rc == 1  # three checks fail honestly; see the acceptance tests
    assert payload["failed"] == 3
    assert payload["suite"] == "exact"
    assert payload["seed"] == 7
    assert len(payload["results"]) == 10
    by_key = {r["key"]: r for r in payload["results"]}
    assert by_key["cylinder-consistency"]["ok"] is True
    failing = sorted(k for k, r in by_key.items() if not r["ok"])
    assert failing == ["entropy-below-topological", "entropy-limit-gap", "growth-rate"]
    assert [r["key"] for r in payload["results"]] == list(verification.SUITES["exact"])
    for r in payload["results"]:
        record = exact_check_results[r["key"]]
        assert r == {
            "key": record.key,
            "title": record.title,
            "ok": record.ok,
            "observed": record.observed,
            "expected": record.expected,
            "elapsed_s": round(record.elapsed, 3),
            "detail": list(record.detail),
        }


@pytest.mark.usefixtures("cached_checks")
def test_verify_tap_output(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "exact", "--seed", "7")
    lines = out.splitlines()
    assert rc == 1
    assert lines[0] == "# suite=exact m=2 seed=7"
    assert lines[1] == "1..10"
    assert sum(l.startswith("ok ") for l in lines) == 7
    assert sum(l.startswith("not ok ") for l in lines) == 3
    gap = next(i for i, l in enumerate(lines) if l.startswith("not ok 5 - "))
    assert lines[gap].startswith(
        "not ok 5 - entropy-limit-gap: |h_11 - limit| = 0.078182 nats "
        "(expected: within 0.03 nats of log(2) + (1/2) log(2) = 1.039721 nats) ["
    )
    assert lines[gap + 1 : gap + 4] == [
        "# h_11 = (3303/2048) log 2 = 1.117903 nats exactly",
        "# the gap decays like 1/sqrt(n) and first reaches 0.03 nats at n = 85",
        "# p_nonneg(11) = 231/1024 is still 0.2256, far from its slow power-law tail",
    ]
    assert lines[gap + 4].startswith("not ok 6 - ")
    assert lines[-1] == "# failed 3 of 10"


def test_verify_rejects_other_alphabets(capsys):
    # The suite pins m=2 and takes no alphabet option.
    rc, out, err = run(capsys, "verify", "--m", "3")
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --m 3" in err


def test_verify_rejects_unknown_suites(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "everything")
    assert rc == 2


def test_cli_names_the_suites_of_the_verification_module():
    assert cli._SUITES == tuple(verification.SUITES)


def test_unknown_suite_refusal_names_every_suite(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "everything")
    assert rc == 2 and out == ""
    assert all(f"'{name}'" in err for name in ("exact", "sampling", "all")), err


def test_only_verify_loads_the_suite():
    # -S: no site packages, so only the package's own imports are seen.
    src = Path(verification.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dyckshift, dyckshift.cli; "
        "print(dyckshift.__file__); print('dyckshift.verification' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True)
    imported_from, loaded = done.stdout.splitlines()
    assert Path(imported_from).resolve().is_relative_to(src)
    assert loaded == "False"


# Subcommands that build no rational, then the two that do.
_FRACTION_FREE = [
    ("reduce", "a1 a2 b2"),
    ("member", "b2 a1"),
    ("count", "--length", "14"),
    ("count", "--balanced", "3"),
    ("sample", "--window", "-4:4", "--count", "3"),
]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(argv, loaded, id=" ".join(argv) or "import")
        for argv, loaded in [
            ((), "[]"),
            *((argv + flag, "[]") for argv in _FRACTION_FREE for flag in ((), ("--json",))),
            (("measure", "a1 b1"), "['decimal', 'fractions']"),
            (("entropy", "--n", "5"), "['decimal', 'fractions']"),
        ]
    ],
)
def test_only_exact_commands_load_fractions(argv, loaded):
    # -S as above; argv () is the bare import, the others run through cli.main.
    src = Path(verification.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import contextlib, io, dyckshift, dyckshift.cli\n"
        "if sys.argv[2:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert dyckshift.cli.main(sys.argv[2:]) == 0\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src), *argv], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == loaded


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_a_closed_output_pipe_ends_quietly_with_141(json_flag):
    # About 1 MB of windows, far more than a pipe buffers, so the reader's close meets a pending write.
    src = Path(verification.__file__).resolve().parents[1]
    argv = ["sample", "--measure", "tilde", "--window", "-50:50", "--count", "3000", *json_flag]
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyckshift.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# ------------------------------------------------------------------- misc


def test_version_flag(capsys):
    rc, out, _ = run(capsys, "--version")
    assert rc == 0
    assert out.startswith("dyckshift ")


def test_missing_subcommand_is_a_usage_error(capsys):
    rc, _, err = run(capsys)
    assert rc == 2
