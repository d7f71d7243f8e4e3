"""Property and unit tests for the content-addressed disk cache.

The key-space properties use a pure-stdlib randomized harness (seeded
``random.Random``, no hypothesis) as the cache must behave for *any*
workload/machine/engine-config combination: distinct tuples never
collide, equal tuples always agree, and round-trips are exact.  The
content-identity tests pin that every spec or machine is encoded once
per object, whatever the call order or the mix of keys built from it.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
import pickle
import random

import pytest

from tests.parity import reference_encoding, reference_json
from repro import obs
from repro.errors import ConfigurationError
from repro.perf import diskcache
from repro.perf.counters import CounterReport
from repro.perf.diskcache import (
    MAGIC,
    DiskCache,
    cache_key,
    canonical_encoding,
    code_version,
    content_digest,
    content_fingerprint,
)
from repro.perf.executor import ProfilingExecutor
from repro.perf.profiler import EngineConfig, Profiler, compute_report, pair_key
from repro.perf.trace_cache import trace_key
from repro.uarch.machine import all_machines, get_machine
from repro.workloads.spec import all_workloads, get_workload

SEED = 20170406  # SPEC CPU2017 release date; fixed for reproducibility

MACHINE = get_machine("skylake-i7-6700")
SPEC = get_workload("505.mcf_r")
ANALYTIC = EngineConfig()


@dataclasses.dataclass
class MutableCounters:
    """A dataclass that is not frozen, so it has no content identity."""

    hits: int = 0


def trace(instructions: int, seed: int) -> EngineConfig:
    return EngineConfig("trace", instructions, seed)


def _random_tuple(rng: random.Random):
    """One random (workload, machine, engine config) keying tuple."""
    spec = rng.choice(all_workloads())
    machine = rng.choice(all_machines())
    engine_config = EngineConfig(
        engine=rng.choice(("analytic", "trace")),
        trace_instructions=rng.choice((50_000, 100_000, 200_000, 400_000)),
        seed=rng.randrange(10_000),
    )
    return spec, machine, engine_config


def _identity(spec, machine, engine_config):
    """What makes two keying tuples semantically equal."""
    return (
        spec.name,
        machine.name,
        engine_config.engine,
        # analytic profiles ignore trace parameters by design
        (engine_config.trace_instructions, engine_config.seed)
        if engine_config.engine == "trace"
        else None,
    )


class TestCacheKeyProperties:
    def test_distinct_tuples_never_collide(self):
        rng = random.Random(SEED)
        seen = {}
        for _ in range(500):
            tup = _random_tuple(rng)
            key = cache_key(*tup)
            identity = _identity(*tup)
            if key in seen:
                assert seen[key] == identity, (
                    f"collision: {identity} vs {seen[key]} -> {key}"
                )
            seen[key] = identity
        assert len(set(seen.values())) == len(seen)

    def test_equal_tuples_agree(self):
        rng = random.Random(SEED + 1)
        for _ in range(100):
            spec, machine, engine_config = _random_tuple(rng)
            first = cache_key(spec, machine, engine_config)
            again = cache_key(
                spec, machine, dataclasses.replace(engine_config)
            )
            assert first == again

    def test_analytic_key_ignores_trace_params(self):
        a = cache_key(SPEC, MACHINE, EngineConfig("analytic", 100_000, 1))
        b = cache_key(SPEC, MACHINE, EngineConfig("analytic", 999_999, 2))
        assert a == b

    def test_trace_key_depends_on_trace_params(self):
        a = cache_key(SPEC, MACHINE, trace(100_000, 1))
        b = cache_key(SPEC, MACHINE, trace(200_000, 1))
        c = cache_key(SPEC, MACHINE, trace(100_000, 2))
        assert len({a, b, c}) == 3

    def test_any_spec_field_perturbation_changes_key(self):
        rng = random.Random(SEED + 2)
        base = cache_key(SPEC, MACHINE, ANALYTIC)
        for _ in range(30):
            factor = 1.0 + rng.uniform(0.01, 0.5)
            mutated = dataclasses.replace(
                SPEC, icount_billions=SPEC.icount_billions * factor
            )
            assert cache_key(mutated, MACHINE, ANALYTIC) != base

    def test_key_is_hex_sha256(self):
        key = cache_key(SPEC, MACHINE, ANALYTIC)
        assert len(key) == 64
        int(key, 16)  # raises on non-hex

    def test_key_includes_code_version(self, monkeypatch):
        import repro.perf.diskcache as mod

        base = cache_key(SPEC, MACHINE, ANALYTIC)
        monkeypatch.setattr(mod, "_CODE_VERSION", "different-code")
        assert cache_key(SPEC, MACHINE, ANALYTIC) != base

    def test_code_version_is_memoized_and_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_code_version_covers_the_quadratures_erf(self):
        import sys
        from pathlib import Path

        from repro.workloads import profiles

        erf_file = Path(sys.modules[profiles.erf.__module__].__file__).resolve()
        root = Path(diskcache.__file__).resolve().parent.parent
        hashed = {
            path.resolve()
            for pattern in diskcache._CODE_GLOBS
            for path in root.glob(pattern)
        }
        assert erf_file in hashed
        assert Path(profiles.__file__).resolve() in hashed

    def test_code_version_covers_the_trace_seed(self):
        import sys
        from pathlib import Path

        from repro.perf import trace_engine

        seed_file = Path(
            sys.modules[trace_engine.trace_seed.__module__].__file__
        ).resolve()
        root = Path(diskcache.__file__).resolve().parent.parent
        hashed = {
            path.resolve()
            for pattern in diskcache._CODE_GLOBS
            for path in root.glob(pattern)
        }
        assert seed_file in hashed


def reference_digest(value) -> str:
    """The content digest recomputed by the oracle, sharing no state."""
    return hashlib.sha256(reference_json(value).encode()).hexdigest()


def fresh(value):
    """An equal copy that has never been digested."""
    return dataclasses.replace(value)


#: Short content fingerprints of the Table IV machines.  In-memory
#: identities, campaign shard keys and campaign digests are built from
#: them, and existing campaign directories resume only while they hold.
GOLDEN_FINGERPRINTS = {
    "skylake-i7-6700": "b70a9c5d6243170d",
    "xeon-e5-2650v4": "6fac75eae0487625",
    "xeon-e5-2430v2": "30f93298bb54b33d",
    "xeon-e5405": "67a8995c58e5b237",
    "sparc-iv-v490": "0111cc48b0e153ec",
    "sparc-t4": "eb05cd7daa0d32a5",
    "opteron-2435": "80d1190042a25c3f",
}


#: Config pairs that compare equal but encode differently: dataclass
#: ``==`` says ``4 == 4.0`` and ``0.0 == -0.0``; the encoding does not.
EQUAL_BUT_DISTINCT = {
    "int-vs-float": (
        lambda value: dataclasses.replace(MACHINE, width=value),
        (4, 4.0),
    ),
    "signed-zero": (
        lambda value: dataclasses.replace(
            MACHINE,
            walker=dataclasses.replace(MACHINE.walker, cached_fraction=value),
        ),
        (0.0, -0.0),
    ),
}


class TestContentIdentity:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
    def test_machine_fingerprints_are_pinned(self, name):
        machine = get_machine(name)
        assert content_fingerprint(machine) == GOLDEN_FINGERPRINTS[name]
        assert content_fingerprint(fresh(machine)) == GOLDEN_FINGERPRINTS[name]

    def test_workload_fingerprint_is_pinned(self):
        assert content_fingerprint(SPEC) == "67dcc0cca225b962"
        assert content_fingerprint(fresh(SPEC)) == "67dcc0cca225b962"

    def test_fingerprint_is_a_prefix_of_the_digest(self):
        digest = content_digest(MACHINE)
        assert len(digest) == 64
        assert digest == reference_digest(MACHINE)
        assert content_fingerprint(MACHINE) == digest[:16]

    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("case", sorted(EQUAL_BUT_DISTINCT))
    def test_fingerprint_is_independent_of_call_order(self, case, first):
        build, values = EQUAL_BUT_DISTINCT[case]
        configs = [build(value) for value in values]
        assert configs[0] == configs[1]  # == cannot tell them apart
        got = {}
        for index in (first, 1 - first):
            got[index] = content_fingerprint(configs[index])
        for index, config in enumerate(configs):
            assert got[index] == reference_digest(config)[:16]
        assert got[0] != got[1]

    def test_each_object_is_encoded_once(self, monkeypatch):
        spec, machine = fresh(SPEC), fresh(MACHINE)
        encoded = []
        real = diskcache.canonical_encoding

        def spy(value):
            encoded.append(value)
            return real(value)

        monkeypatch.setattr(diskcache, "canonical_encoding", spy)
        rng = random.Random(SEED + 6)
        key_calls = (
            lambda: cache_key(spec, machine, ANALYTIC),
            lambda: cache_key(spec, machine, trace(1000, rng.randrange(9))),
            lambda: pair_key(spec, machine),
            lambda: trace_key(spec, 1000, rng.randrange(9), 64, 4096),
        )
        for _ in range(100):
            rng.choice(key_calls)()
        assert sum(value is spec for value in encoded) == 1
        assert sum(value is machine for value in encoded) == 1

    def test_replace_gets_a_fresh_digest(self):
        stale = content_digest(MACHINE)
        changed = dataclasses.replace(MACHINE, width=MACHINE.width * 2)
        assert content_digest(changed) == reference_digest(changed)
        assert content_digest(changed) != stale
        assert content_digest(fresh(MACHINE)) == stale

    @pytest.mark.parametrize(
        "clone",
        [lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    @pytest.mark.parametrize("value", [SPEC, MACHINE], ids=["spec", "machine"])
    def test_copies_keep_a_correct_digest(self, clone, value):
        content_digest(value)
        copied = clone(value)
        assert copied == value
        assert content_digest(copied) == content_digest(fresh(value))
        assert content_digest(copied) == reference_digest(value)

    def test_stored_digest_is_invisible_to_the_dataclass(self):
        machine = fresh(MACHINE)
        before = (hash(machine), repr(machine), dataclasses.asdict(machine))
        content_digest(machine)
        after = (hash(machine), repr(machine), dataclasses.asdict(machine))
        assert before == after
        assert machine == MACHINE

    @pytest.mark.parametrize(
        "value",
        [MutableCounters(), {"a": 1}, (1, 2), 4.0, object(), EngineConfig],
        ids=["mutable-dataclass", "dict", "tuple", "float", "object", "class"],
    )
    def test_only_frozen_dataclasses_are_digested(self, value):
        with pytest.raises(ConfigurationError):
            content_digest(value)
        with pytest.raises(ConfigurationError):
            content_fingerprint(value)

    def test_disk_key_uses_the_full_digest(self, monkeypatch):
        # Two contents whose 64-bit fingerprints collide must still get
        # distinct disk keys: the key carries 256 bits per component.
        other = fresh(MACHINE)
        shared = "0" * 16
        monkeypatch.setattr(
            diskcache,
            "content_digest",
            lambda value: shared + ("b" if value is other else "a") * 48,
        )
        assert cache_key(SPEC, MACHINE, ANALYTIC) != cache_key(
            SPEC, other, ANALYTIC
        )


class TestDigestCounter:
    @pytest.fixture(autouse=True)
    def _obs_on(self):
        obs.disable()
        obs.reset()
        obs.metrics.reset()
        obs.enable()
        yield
        obs.disable()
        obs.reset()
        obs.metrics.reset()

    def test_counts_each_object_once(self, tmp_path):
        counter = obs.metrics.counter("identity.digests")
        specs = [fresh(get_workload(n)) for n in ("505.mcf_r", "557.xz_r")]
        machines = [
            fresh(get_machine(n))
            for n in ("skylake-i7-6700", "sparc-t4", "xeon-e5405")
        ]
        pairs = [(spec, machine) for spec in specs for machine in machines]
        before = counter.value
        ProfilingExecutor(Profiler(cache_dir=tmp_path), jobs=1).run(pairs)
        assert counter.value - before == len(specs) + len(machines)
        before = counter.value
        ProfilingExecutor(Profiler(cache_dir=tmp_path), jobs=1).run(pairs)
        assert counter.value - before == 0


class TestCanonicalEncoding:
    def test_dict_keys_are_sorted(self):
        assert canonical_encoding({"b": 1, "a": 2}) == {"a": 2, "b": 1}

    def test_floats_round_trip_bit_exactly(self):
        value = 0.1 + 0.2  # not 0.3
        assert canonical_encoding(value) == repr(value)
        assert float(canonical_encoding(value)) == value

    def test_unencodable_values_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_encoding(object())


def production_json(value) -> str:
    return json.dumps(
        canonical_encoding(value), sort_keys=True, separators=(",", ":")
    )


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


class _Ratio(float):
    """A float subclass with its own repr, as numpy's scalars have."""

    def __repr__(self) -> str:
        return f"Ratio({float(self)!r})"


#: Values off the registry's beaten path, each encoded by both walks.
EDGE_VALUES = {
    "colliding-keys": {1: "int", "1": "str", 1.5: "float", "1.5": "str"},
    "int-keys": {10: "ten", 9: "nine", -1: "minus"},
    # Keys whose encodings collide keep the value of the key whose str
    # sorts last, whatever the insertion order.
    "tuple-keys": {"[1, 2]": "list-text", (1, 2): "pair"},
    "enum-keys": {_Level.HIGH: 1.0, "_Level.LOW": 2.0, _Level.LOW: 3.0},
    "int-enum": [_Level.LOW, 1, True, None],
    "float-subclass": [_Ratio(0.5), 0.5],
    "special-floats": [0.0, -0.0, float("inf"), float("-inf"), float("nan")],
    "nested": ((1, [2.5, ("x", None)]), {"b": {"a": ()}}),
    "engine-config": EngineConfig("trace", 1_000, 3),
}


class TestEncodingOracle:
    """The per-type encoding serializes as the reference walk does."""

    def test_every_registered_workload_spec(self):
        for spec in all_workloads():
            assert production_json(spec) == reference_json(spec), spec.name

    def test_paper_machines_and_a_generated_population(self):
        from repro.campaign.generator import generate_machines
        from repro.uarch.machine import paper_machines

        machines = list(paper_machines()) + generate_machines(64)
        assert len(machines) == 71
        for machine in machines:
            assert production_json(machine) == reference_json(machine), (
                machine.name
            )

    @pytest.mark.parametrize("engine", [ANALYTIC, trace(2_000, 7)],
                             ids=["analytic", "trace"])
    def test_reports_of_both_engines(self, engine):
        for name in ("505.mcf_r", "557.xz_r"):
            for machine in ("skylake-i7-6700", "sparc-t4"):
                report = compute_report(get_workload(name),
                                        get_machine(machine), engine)
                assert production_json(report) == reference_json(report)

    @pytest.mark.parametrize("case", sorted(EDGE_VALUES))
    def test_edge_values(self, case):
        value = EDGE_VALUES[case]
        assert production_json(value) == reference_json(value)
        assert canonical_encoding(value) == reference_encoding(value)

    @pytest.mark.parametrize(
        "value", [object(), EngineConfig, b"bytes", {"k": {1, 2}}],
        ids=["object", "class", "bytes", "set-inside"],
    )
    def test_both_reject_the_same_values(self, value):
        with pytest.raises(ConfigurationError) as want:
            reference_encoding(value)
        with pytest.raises(ConfigurationError) as got:
            canonical_encoding(value)
        assert str(got.value) == str(want.value)


@pytest.fixture
def cache(tmp_path):
    return DiskCache(tmp_path / "cache")


@pytest.fixture(scope="module")
def report():
    return compute_report(SPEC, MACHINE, ANALYTIC)


class TestRoundTrip:
    def test_store_then_load_is_equal(self, cache, report):
        rng = random.Random(SEED + 3)
        for _ in range(20):
            spec = rng.choice(all_workloads())
            machine = rng.choice(all_machines())
            original = compute_report(spec, machine, ANALYTIC)
            key = cache_key(spec, machine, ANALYTIC)
            cache.store(key, original)
            loaded = cache.load(key)
            assert loaded == original  # dataclass equality: exact floats

    def test_missing_key_is_none(self, cache):
        assert cache.load("0" * 64) is None

    def test_contains_and_len(self, cache, report):
        key = cache_key(SPEC, MACHINE, ANALYTIC)
        assert key not in cache
        cache.store(key, report)
        assert key in cache
        assert len(cache) == 1

    def test_store_is_idempotent(self, cache, report):
        key = cache_key(SPEC, MACHINE, ANALYTIC)
        cache.store(key, report)
        cache.store(key, report)
        assert len(cache) == 1
        assert cache.load(key) == report


class TestCorruption:
    """Any damaged entry must degrade to a miss, never to a crash."""

    def _stored(self, cache, report):
        key = cache_key(SPEC, MACHINE, ANALYTIC)
        path = cache.store(key, report)
        return key, path

    def test_truncated_file_is_a_miss(self, cache, report):
        rng = random.Random(SEED + 4)
        for _ in range(10):
            key, path = self._stored(cache, report)
            blob = path.read_bytes()
            path.write_bytes(blob[: rng.randrange(len(blob))])
            assert cache.load(key) is None
            assert not path.exists()  # damaged entry is dropped

    def test_flipped_payload_byte_is_a_miss(self, cache, report):
        rng = random.Random(SEED + 5)
        for _ in range(10):
            key, path = self._stored(cache, report)
            blob = bytearray(path.read_bytes())
            position = rng.randrange(len(MAGIC) + 65, len(blob))
            blob[position] ^= 0xFF
            path.write_bytes(bytes(blob))
            assert cache.load(key) is None

    def test_garbage_file_is_a_miss(self, cache):
        key = cache_key(SPEC, MACHINE, ANALYTIC)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a cache entry at all")
        assert cache.load(key) is None

    def test_wrong_pickled_type_is_a_miss(self, cache):
        import hashlib

        key = cache_key(SPEC, MACHINE, ANALYTIC)
        payload = pickle.dumps({"not": "a report"})
        blob = (
            MAGIC + hashlib.sha256(payload).hexdigest().encode()
            + b"\n" + payload
        )
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert cache.load(key) is None

    def test_corruption_falls_back_to_recompute(self, tmp_path):
        profiler = Profiler(cache_dir=tmp_path)
        report = profiler.profile(SPEC, MACHINE)
        entry = next(iter(profiler.disk_cache._entries()))
        entry.write_bytes(b"\x00" * 10)
        fresh = Profiler(cache_dir=tmp_path)
        assert fresh.profile(SPEC, MACHINE) == report
        assert fresh.cache_info().misses == 1
        assert fresh.cache_info().disk_hits == 0


class TestAtomicityAndEviction:
    def test_no_temp_files_left_after_store(self, cache, report):
        cache.store(cache_key(SPEC, MACHINE, ANALYTIC), report)
        assert not list(cache.root.rglob("*.part"))

    def test_failed_store_leaves_no_partial_file(self, cache, monkeypatch):
        class Unpicklable(CounterReport):
            def __reduce__(self):
                raise RuntimeError("cannot serialize")

        with pytest.raises(Exception):
            cache.store("ab" * 32, Unpicklable.__new__(Unpicklable))
        assert not list(cache.root.rglob("*"))  # nothing written at all

    def test_clear_removes_everything(self, cache, report):
        for seed in range(5):
            cache.store(cache_key(SPEC, MACHINE, trace(1000, seed)), report)
        assert len(cache) == 5
        assert cache.clear() == 5
        assert len(cache) == 0

    def test_prune_keeps_newest(self, cache, report):
        import os

        keys = [cache_key(SPEC, MACHINE, trace(1000, s)) for s in range(6)]
        for age, key in enumerate(keys):
            path = cache.store(key, report)
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        assert cache.prune(max_entries=2) == 4
        assert len(cache) == 2
        assert cache.load(keys[-1]) is not None
        assert cache.load(keys[-2]) is not None
        assert cache.load(keys[0]) is None

    def test_prune_rejects_negative(self, cache):
        with pytest.raises(ConfigurationError):
            cache.prune(-1)
