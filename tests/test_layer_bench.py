"""The layer script's names and layers, at small sizes; the full script does not run."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from dyckshift import coding

_PATH = Path(__file__).resolve().parent.parent / "tools" / "layer_bench.py"
_SPEC = importlib.util.spec_from_file_location("layer_bench", _PATH)
layer_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_bench)


def test_every_layer_names_a_live_attribute_or_check():
    # The checks are timed by the bench's own verify passes, so no layer times one.
    names = list(layer_bench.layers(7))
    assert len(names) == 9
    for name in names:
        module, _, rest = name.removesuffix(".s").partition(".")
        assert callable(getattr(importlib.import_module(f"dyckshift.{module}"), rest, None)), name


def test_reduction_layers_time_a_small_language():
    for layer in (layer_bench.residue_layer, layer_bench.advance_layer):
        seconds, ok = layer(5, 3)
        assert ok and seconds >= 0


def test_sweep_layer_times_a_small_sweep():
    assert layer_bench.layers(7)["verification._swap_sweep.s"] is layer_bench._sweep
    seconds, ok = layer_bench._sweep(4, 2)
    assert ok and seconds >= 0


def test_mass_layer_prices_a_small_language():
    assert "measures.cylinder_mass.s" in layer_bench.layers(7)
    seconds, ok = layer_bench.mass_layer(4, 3)
    assert ok and seconds >= 0


def test_counting_entropy_and_horizon_layers_time_small_inputs():
    for seconds, ok in (
        layer_bench.count_layer(range(0, 31, 10), (2, 3)),
        layer_bench.entropy_layer(8, 3),
        layer_bench.horizon_layer("a1 a2", Fraction(1, 20)),
    ):
        assert ok and seconds >= 0


def test_count_layer_fails_on_a_count_off_its_pattern_terms(monkeypatch):
    real = layer_bench.words.count_language
    monkeypatch.setattr(layer_bench.words, "count_language", lambda n, m: real(n, m) + (n == 20))
    assert not layer_bench.count_layer(range(0, 31, 10), (2, 3))[1]


def test_window_body_layers_time_a_few_windows():
    assert {"coding._tilde_window_codes.s", "coding._plus_window_codes.s"} <= set(layer_bench.layers(7))
    for body in (coding._tilde_window_codes, coding._plus_window_codes):
        seconds, ok = layer_bench.window_layer(body, 7, ((3, 41), (20, 2)))
        assert ok and seconds >= 0
    assert not layer_bench.window_layer(lambda m, width, getrandbits: [1, -2], 7, ((1, 2),))[1]


def _fake_layer(outcomes):
    """A layer that gives the next of ``outcomes`` at each call, counting its calls."""
    calls = []

    def run():
        calls.append(None)
        return outcomes[len(calls) - 1]

    return run, calls


def test_each_layer_reports_the_least_of_its_repetitions():
    assert layer_bench.REPEATS == 3
    run, calls = _fake_layer([(0.3, True), (0.1, True), (0.2, True)])
    assert layer_bench.best_of(run) == (0.1, True)
    assert len(calls) == 3


def test_a_layer_fails_when_any_repetition_fails():
    run, calls = _fake_layer([(0.3, True), (0.1, True), (0.2, False)])
    assert layer_bench.best_of(run) == (0.1, False)
    assert len(calls) == 3


def test_garbage_is_collected_before_each_repetition(monkeypatch):
    events = []
    monkeypatch.setattr(layer_bench.gc, "collect", lambda: events.append("collect"))

    def run():
        events.append("run")
        return 0.1, True

    layer_bench.best_of(run)
    assert events == ["collect", "run"] * layer_bench.REPEATS
