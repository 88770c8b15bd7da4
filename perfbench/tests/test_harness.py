"""Self-tests for the benchmark harness: percentiles, spans, the ledger.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
The ledger and statistics tests need no program; the inputs-hash test
imports the workloads and so needs ``src/`` importable.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from harness import LatencySamples, MemoryGrowth, median, percentile, samples_beyond  # noqa: E402
from ledger import Ledger, Patches, iter_proxy, timing_proxy  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- percentile arithmetic -----------------------------------------------------------


def test_nearest_rank_percentiles() -> None:
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 1) == 1
    assert percentile([7.0], 99) == 7.0
    assert percentile([1, 2], 50) == 1


def test_p99_tail_needs_a_thousand_samples_for_ten_beyond() -> None:
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(100_000, 99) == 1000
    assert samples_beyond(1, 99) == 0


def test_percentile_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_median_even_and_odd() -> None:
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_latency_summary_in_microseconds() -> None:
    samples = LatencySamples()
    for ns in range(1000, 1_001_000, 1000):  # 1..1000 us
        samples.add(ns)
    assert samples.summary_us() == (500.0, 990.0, 1000, 1, 10)


def test_windowed_percentiles_take_the_median_window() -> None:
    samples = LatencySamples(capacity=2500)  # the rest is appended
    # Three windows: fast, then a burst of slow, then fast again.
    for ns in [1000] * 1000 + [1000] * 960 + [9000] * 40 + [1000] * 1000:
        samples.add(ns)
    # Pooled, the burst sets p99; the median window does not see it.
    assert samples.summary_us()[:2] == (1.0, 9.0)
    assert samples.summary_us(window=1000) == (1.0, 1.0, 3000, 3, 10)
    assert samples.summary_us(window=5000) == samples.summary_us()


def test_memory_growth_counts_pages_touched_after_the_baseline() -> None:
    memory = MemoryGrowth()
    before = memory.peak_mb()
    block = bytearray(48 * 1024 * 1024)  # zero-filled: every page is touched
    grown = memory.peak_mb()
    del block
    assert before < 16 and 40 < grown < 64
    # A baseline taken later does not count what was allocated before it.
    assert MemoryGrowth(base_kib=memory.base_kib + 48 * 1024).peak_mb() < grown - 40


# -- spans, self time and nesting ------------------------------------------------------------


def test_self_time_subtracts_direct_children_only() -> None:
    clock = FakeClock()
    ledger = Ledger(clock)
    ledger.enter("root")          # 0
    clock.now = 1.0
    ledger.enter("child")         # 1
    clock.now = 2.0
    ledger.enter("grandchild")    # 2
    clock.now = 5.0
    ledger.exit()                 # grandchild: 3 s
    clock.now = 6.0
    ledger.exit()                 # child: 5 s, self 2 s
    ledger.enter("child")
    clock.now = 7.0
    ledger.exit()                 # second child: 1 s
    clock.now = 10.0
    ledger.exit()                 # root: 10 s, self 10 - 5 - 1 = 4 s
    assert ledger.self_time["grandchild"] == 3.0
    assert ledger.self_time["child"] == 2.0 + 1.0
    assert ledger.self_time["root"] == 4.0
    assert ledger.calls["child"] == 2
    assert ledger.total_time["root"] == 10.0
    assert ledger.root_time == 10.0
    assert list(ledger.parent) == [-1, 0, 1, 0]
    # Offline recomputation from the stored spans agrees with the
    # online accounting, and self times add up to the root's duration.
    assert ledger.self_time_of_spans() == [4.0, 2.0, 3.0, 1.0]
    assert sum(ledger.self_time_of_spans()) == 10.0


def test_mean_self_us_and_request_ids() -> None:
    clock = FakeClock()
    ledger = Ledger(clock)
    for request in (1, 2):
        ledger.request_id = request
        ledger.enter("op")
        clock.now += 0.000002
        ledger.exit()
    assert ledger.mean_self_us("op") == pytest.approx(2.0)
    assert ledger.mean_self_us("never") == 0.0
    assert list(ledger.request) == [1, 2]


def test_unattributed_share_counts_time_outside_root_spans() -> None:
    clock = FakeClock()
    ledger = Ledger(clock)
    ledger.enter("a")
    clock.now = 3.0
    ledger.enter("b")
    clock.now = 4.0
    ledger.exit()
    ledger.exit()                 # root a covers 4 s
    clock.now = 6.0
    ledger.enter("c")
    clock.now = 8.0
    ledger.exit()                 # root c covers 2 s
    # 10 s of wall time, 6 s inside root spans: 40 % unattributed.
    assert ledger.unattributed_share(10.0) == pytest.approx(0.4)
    assert ledger.unattributed_share(0.0) == 0.0
    assert ledger.unattributed_share(5.0) == 0.0


def test_paused_ledger_records_nothing() -> None:
    ledger = Ledger()
    proxy = timing_proxy(ledger, "f", lambda x: x + 1)
    with ledger.paused():
        assert proxy(1) == 2
    assert len(ledger.start) == 0
    assert proxy(1) == 2
    assert ledger.calls["f"] == 1


def test_proxies_nest_name_by_argument_and_observe() -> None:
    ledger = Ledger()
    seen = []
    inner = timing_proxy(
        ledger, lambda op: f"inner.{op}", lambda op: op, lambda args, out: seen.append(out)
    )
    outer = timing_proxy(ledger, "outer", lambda: [inner("a"), inner("b")])
    assert outer() == ["a", "b"]
    assert seen == ["a", "b"]
    names = [ledger.names[i] for i in ledger.name_id]
    assert names == ["outer", "inner.a", "inner.b"]
    assert list(ledger.parent) == [-1, 0, 0]


def test_iter_proxy_times_each_item() -> None:
    ledger = Ledger()
    gen = iter_proxy(ledger, "replay", lambda n: iter(range(n)))
    assert list(gen(3)) == [0, 1, 2]
    assert ledger.counts["replay.items"] == 3
    assert ledger.calls["replay"] == 4  # three items plus the exhausted call


def test_patches_restore_functions_and_staticmethods() -> None:
    class Target:
        def method(self) -> str:
            return "m"

        @staticmethod
        def static() -> str:
            return "s"

    original_method = Target.__dict__["method"]
    original_static = Target.__dict__["static"]
    ledger = Ledger()
    patches = Patches()
    patches.replace(Target, "method", lambda f: timing_proxy(ledger, "method", f))
    patches.replace(Target, "static", lambda f: timing_proxy(ledger, "static", f))
    assert Target().method() == "m"
    assert Target.static() == "s"
    assert ledger.calls == {"method": 1, "static": 1}
    patches.undo()
    assert Target.__dict__["method"] is original_method
    assert Target.__dict__["static"] is original_static


# -- seeded inputs -----------------------------------------------------------------------------


def test_inputs_hash_depends_on_the_seed_only() -> None:
    fleet = pytest.importorskip("fleet_workloads")
    fig5 = pytest.importorskip("fig5_workload")
    small = dict(apps=2000, churn=200)
    a = fleet.QueryInputs.generate(3, **small).digest()
    b = fleet.QueryInputs.generate(3, **small).digest()
    c = fleet.QueryInputs.generate(4, **small).digest()
    assert a == b != c
    feed_a = fleet.FeedInputs.generate(3, events=2000).digest()
    assert feed_a == fleet.FeedInputs.generate(3, events=2000).digest()
    assert feed_a != fleet.FeedInputs.generate(4, events=2000).digest()
    fig_a = fig5.Fig5Inputs.generate(3).digest()
    assert fig_a == fig5.Fig5Inputs.generate(3).digest()
    assert fig_a != fig5.Fig5Inputs.generate(4).digest()
