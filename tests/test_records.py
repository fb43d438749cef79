"""Value semantics of the package's records: repr, equality, hash, immutability, checks.

Every record is pinned here by its literal ``repr``, by equality and hash
(hash equals that of the tuple of its fields, so sets and dicts of records
keep their order), by refusing assignment and deletion, by pickling to an
equal value, and by each construction check's exception type and message.
The records are named tuples (``Word`` a slotted class), so importing the
package stays clear of ``dataclasses`` and what it imports.
"""

import ast
import pickle
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import dyckshift

from dyckshift.analysis import EmpiricalEstimate, MatchingTimes, WindowDiagnostics
from dyckshift.coding import PointWindow, sample_tilde
from dyckshift.measures import EntropyReport, ExtensionMassRow, LogPair
from dyckshift.verification import CheckResult
from dyckshift.words import NotInLanguage, Word

HALF, QUARTER = LogPair(Fraction(1), Fraction(1, 2)), LogPair(Fraction(2), Fraction(1, 4))

# (class, every field in order, the fields of an unequal record, literal repr)
RECORDS = [
    (Word, (2, (1, -1)), (2, (1, -2)), "Word(m=2, codes=(1, -1))"),
    (PointWindow, (2, -1, 1, (1, -1, 2)), (2, -1, 1, (2, -2, 2)), "PointWindow(m=2, lo=-1, hi=1, codes=(1, -1, 2))"),
    (
        ExtensionMassRow,
        (4, 2, Fraction(1, 8), Fraction(1, 4), Fraction(0)),
        (4, 2, Fraction(1, 8), Fraction(1, 4), Fraction(1)),
        "ExtensionMassRow(total_len=4, count=2, added=Fraction(1, 8), partial=Fraction(1, 4), residual=Fraction(0, 1))",
    ),
    (
        LogPair,
        (Fraction(1), Fraction(1, 2)),
        (Fraction(1), Fraction(1, 4)),
        "LogPair(log2_coeff=Fraction(1, 1), logm_coeff=Fraction(1, 2))",
    ),
    (
        EntropyReport,
        (2, 3, QUARTER, HALF, Fraction(1, 2)),
        (2, 3, QUARTER, QUARTER, Fraction(1, 2)),
        "EntropyReport(n=2, m=3, block=LogPair(log2_coeff=Fraction(2, 1), logm_coeff=Fraction(1, 4)), "
        "step=LogPair(log2_coeff=Fraction(1, 1), logm_coeff=Fraction(1, 2)), p_nonneg=Fraction(1, 2))",
    ),
    (
        CheckResult,
        ("k", "t", True, "o", "e", 0.5, ("d",)),
        ("k", "t", False, "o", "e", 0.5, ("d",)),
        "CheckResult(key='k', title='t', ok=True, observed='o', expected='e', elapsed=0.5, detail=('d',))",
    ),
    (MatchingTimes, ((0, None), (-1, None)), ((0, None), (-2, None)), "MatchingTimes(forward=(0, None), backward=(-1, None))"),
    (
        EmpiricalEstimate,
        ("e", 3, 10, 2),
        ("e", 4, 10, 2),
        "EmpiricalEstimate(event='e', hits=3, trials=10, excluded_unresolved=2)",
    ),
    (
        WindowDiagnostics,
        ("a", "b", 1.5, None),
        ("a", "b", 1.5, -0.5),
        "WindowDiagnostics(forward_label='a', backward_label='b', forward_score=1.5, backward_score=None)",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_repr_is_the_literal_field_listing(cls, fields, other, text):
    assert repr(cls(*fields)) == text


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_the_fields(cls, fields, other, text):
    a, b, c = cls(*fields), cls(*fields), cls(*other)
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert hash(a) == hash(b) == hash(tuple(fields))
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, fields, other, text):
    record = cls(*fields)
    name = re.match(r"\w+\((\w+)=", text).group(1)
    with pytest.raises(AttributeError):
        setattr(record, name, other[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*fields)


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
def test_records_pickle_to_equal_values(cls, fields, other, text):
    record = cls(*fields)
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls
    assert again == record and repr(again) == text


def test_defaults_fill_the_trailing_fields():
    assert EmpiricalEstimate("e", 1, 2) == EmpiricalEstimate("e", 1, 2, 0)
    assert CheckResult("k", "t", True, "o", "e", 0.0).detail == ()


def test_words_iterate_index_and_slice_their_letters():
    w = Word(2, (1, -1, 2))
    assert list(w) == [1, -1, 2] and len(w) == 3
    assert w[0] == 1 and w[-1] == 2
    assert w[1:] == Word(2, (-1, 2))
    assert w != (2, (1, -1, 2)) and w != Word(3, (1, -1, 2))


def test_sampler_windows_equal_checked_windows():
    trusted = next(sample_tilde(2, -1, 1, seed=7, count=1))
    checked = PointWindow(*trusted)
    assert type(trusted) is PointWindow
    assert trusted == checked and hash(trusted) == hash(checked) and repr(trusted) == repr(checked)


def _raises(exc_type, message, build):
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type
    assert str(info.value) == message


CHECKS = [
    (ValueError, "need m >= 1, got 0", lambda: Word(0, ())),
    (ValueError, "letter code 3 out of range for m=2", lambda: Word(2, (3,))),
    (ValueError, "letter code 0 out of range for m=2", lambda: Word(2, (1, 0))),
    (ValueError, "window [1, 2] must contain the origin", lambda: PointWindow(2, 1, 2, (1, 1))),
    (ValueError, "window length does not match its bounds", lambda: PointWindow(2, 0, 1, (1,))),
    (ValueError, "letter code 4 out of range for m=2", lambda: PointWindow(2, 0, 1, (1, 4))),
    (ValueError, "letter code -3 out of range for m=2", lambda: PointWindow(2, 0, 1, (-3, 1))),
    (ValueError, "need m >= 1, got 0", lambda: PointWindow(0, 0, 0, (1,))),
    (NotInLanguage, "window letters annihilate; not a point of the subshift", lambda: PointWindow(2, 0, 1, (1, -2))),
]




def _check_ids() -> list[str]:
    """Each row's message, and the record it builds where an earlier row has the same message."""
    ids: list[str] = []
    for _, message, build in CHECKS:
        ids.append(f"{message} ({build.__code__.co_names[0]})" if message in ids else message)
    return ids


@pytest.mark.parametrize("exc_type, message, build", CHECKS, ids=_check_ids())
def test_construction_checks_keep_their_errors(exc_type, message, build):
    _raises(exc_type, message, build)


def test_valid_edge_records_construct():
    assert PointWindow(2, 0, 1, (-2, 1)).codes == (-2, 1)  # a loose closer, then an opener


@pytest.mark.parametrize(
    "build", [lambda codes: Word(2, codes), lambda codes: PointWindow(2, 0, 1, codes)], ids=["Word", "PointWindow"]
)
def test_records_copy_a_callers_list_of_letters(build):
    letters = [1, -1]
    record = build(letters)
    assert record == build((1, -1)) and hash(record) == hash(build((1, -1)))
    letters.append(5)  # out of range at m = 2, so it must not reach the checked record
    assert record.codes == (1, -1) and repr(record) == repr(build((1, -1)))
    codes = (1, -1)
    assert build(codes).codes is codes  # a tuple is stored as it is


def test_import_leaves_dataclasses_inspect_and_json_out():
    # -S: no site packages, so only the package's own imports are seen.
    # json loads only when a command emits --json output.
    src = Path(dyckshift.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dyckshift, dyckshift.cli; "
        "print(dyckshift.__file__); "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'json'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True)
    imported_from, heavy = done.stdout.splitlines()
    assert Path(imported_from).resolve().is_relative_to(src)
    assert heavy == "[]"


# The names the README's "Library" section uses, and nothing else.
README_LIBRARY_NAMES = {
    "Word",
    "residue",
    "residue_text",
    "cylinder_mass",
    "entropy_report",
    "sample_tilde",
    "empirical_cylinders",
    "match_index_coincidences",
}


def test_package_exports_only_the_readme_library_names():
    public = {
        name
        for name, value in vars(dyckshift).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == README_LIBRARY_NAMES
    assert dyckshift.__version__ == "0.1.0"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    for name in README_LIBRARY_NAMES:
        assert re.search(rf"\b{name}\b", library), name


def _public_definitions(path: Path) -> list[tuple[str, str, range]]:
    """Each public top-level name a module defines: ``(name, pattern of a use, lines of its definition)``, 0-based.

    A use is any mention of the name as a word.
    """
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        span = range(node.lineno - 1, node.end_lineno)
        found += [(name, rf"\b{name}\b", span) for name in names if not name.startswith("_")]
    return found


def _public_methods(path: Path) -> list[tuple[str, str, range]]:
    """Each public method or property of a module's classes: ``(Class.name, pattern of a use, lines of it)``.

    A method is used where a line calls it (``.name(``), a property where a
    line reads it (``.name`` not followed by ``(``).
    """
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    is_property = any(getattr(d, "id", None) == "property" for d in item.decorator_list)
                    use = rf"\.{item.name}\b(?!\()" if is_property else rf"\.{item.name}\("
                    found.append((f"{node.name}.{item.name}", use, range(item.lineno - 1, item.end_lineno)))
    return found


def _unmentioned(definitions) -> list[str]:
    """The definitions that no line of ``src/`` outside their own and no bench script mentions.

    Documentation does not count: a name that only the README mentions has
    no user.
    """
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "dyckshift").glob("*.py"))
    lines = {path: path.read_text().splitlines() for path in modules}
    outside = "".join(path.read_text() for path in sorted((root / "perfbench").glob("*.py")))
    unused = []
    for path in modules:
        for label, use, span in definitions(path):
            mention = re.compile(use).search
            in_src = any(
                mention(line)
                for other in modules
                for i, line in enumerate(lines[other])
                if other != path or i not in span
            )
            if not in_src and not mention(outside):
                unused.append(f"{path.name}: {label}")
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    """A public name of ``src/`` that only its own definition mentions is test-only surface.

    A name counts as used when a line of ``src/`` outside its definition
    or a bench script mentions it; a README mention does not count.
    """
    assert _unmentioned(_public_definitions) == []


def test_every_public_method_has_a_user_outside_the_tests():
    """A public method or property of ``src/`` that nothing outside its definition uses is test-only surface.

    A method counts as used when a line of ``src/`` outside its definition
    or a bench script calls it as ``.name(``, a property when such a line
    reads it as ``.name``; a README mention does not count.  Dunder methods
    are out of scope.
    """
    assert _unmentioned(_public_methods) == []


def test_src_stays_within_its_line_budget():
    """``src/dyckshift/*.py`` holds at most 2,900 lines, the budget ROADMAP's standing rules set."""
    src = Path(__file__).resolve().parents[1] / "src" / "dyckshift"
    total = sum(len(path.read_text().splitlines()) for path in src.glob("*.py"))
    assert total <= 2900, total


def _defaulted_parameters(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """Each parameter of ``fn`` with a default: ``(position, name)``, position None if keyword-only."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    found: list[tuple[int | None, str]] = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    found += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def test_every_default_is_set_by_some_caller():
    """A defaulted parameter of a public top-level ``src/`` function that no call passes is an unused option.

    A call counts when it names the function (``f(...)`` or ``x.f(...)``)
    in ``src/`` or a bench script and passes the parameter by position or
    keyword; ``*args`` passes every positional, ``**kwargs`` every keyword.
    """
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "dyckshift").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in [*modules, *sorted((root / "perfbench").glob("*.py"))]}
    passed: dict[str, set[int | str]] = {}
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            seen = passed.setdefault(name, set())
            star = any(isinstance(a, ast.Starred) for a in call.args)
            seen.update(range(len(call.args)) if not star else ["*"])
            seen.update(k.arg if k.arg is not None else "**" for k in call.keywords)
    unset = [
        f"{path.name}: {node.name}.{param}"
        for path in modules
        for node in trees[path].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for position, param in _defaulted_parameters(node)
        if not ({param, "**"} | ({position, "*"} if position is not None else set())) & passed.get(node.name, set())
    ]
    assert unset == []
