"""Unit tests for the branch predictor simulators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.uarch.branch import PredictorSpec
from tests.scalar_uarch import (
    BimodalPredictor,
    GSharePredictor,
    StaticPredictor,
    TournamentPredictor,
    build_predictor,
)


class TestPredictorSpec:
    def test_defaults_valid(self):
        spec = PredictorSpec()
        assert spec.kind == "gshare"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="neural"),
            dict(strength=1.5),
            dict(table_entries=-1),
            dict(mispredict_penalty=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PredictorSpec(**kwargs)

    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("static", StaticPredictor),
            ("bimodal", BimodalPredictor),
            ("gshare", GSharePredictor),
            ("tournament", TournamentPredictor),
        ],
    )
    def test_build_predictor_dispatch(self, kind, cls):
        predictor = build_predictor(PredictorSpec(kind=kind, table_entries=4096))
        assert isinstance(predictor, cls)

    def test_build_rounds_table_to_power_of_two(self):
        predictor = build_predictor(PredictorSpec(kind="bimodal", table_entries=5000))
        assert predictor._counters.size == 4096


class TestStaticPredictor:
    def test_always_taken(self):
        predictor = StaticPredictor(taken=True)
        assert predictor.predict(0x1234) is True
        predictor.update(0x1234, False)
        assert predictor.predict(0x1234) is True


class TestBimodalPredictor:
    def test_learns_steady_direction(self):
        predictor = BimodalPredictor(256)
        for _ in range(4):
            predictor.update(10, False)
        assert predictor.predict(10) is False

    def test_hysteresis_tolerates_single_flip(self):
        predictor = BimodalPredictor(256)
        for _ in range(4):
            predictor.update(10, True)
        predictor.update(10, False)  # one anomaly
        assert predictor.predict(10) is True

    def test_table_size_power_of_two_required(self):
        with pytest.raises(ConfigurationError):
            BimodalPredictor(1000)

    def test_biased_stream_accuracy(self):
        predictor = BimodalPredictor(1024)
        rng = np.random.default_rng(0)
        correct = 0
        n = 20_000
        for _ in range(n):
            taken = bool(rng.random() < 0.9)
            correct += predictor.predict_and_update(7, taken)
        assert correct / n > 0.85

    def test_alternating_stream_defeats_bimodal(self):
        predictor = BimodalPredictor(1024)
        correct = 0
        n = 1000
        for i in range(n):
            correct += predictor.predict_and_update(7, i % 2 == 0)
        assert correct / n < 0.6


class TestGShare:
    def test_learns_periodic_pattern(self):
        # gshare with global history learns short periodic patterns that
        # defeat a bimodal predictor.
        predictor = GSharePredictor(4096, history_bits=8)
        pattern = [True, True, False, True]
        correct = 0
        n = 8000
        for i in range(n):
            correct += predictor.predict_and_update(3, pattern[i % 4])
        assert correct / n > 0.95

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            GSharePredictor(1000)
        with pytest.raises(ConfigurationError):
            GSharePredictor(1024, history_bits=0)


class TestTournament:
    def test_beats_or_matches_components_on_mixed_workload(self):
        rng = np.random.default_rng(1)
        streams = []
        # branch 1: heavily biased (bimodal-friendly)
        streams += [(1, bool(rng.random() < 0.95)) for _ in range(4000)]
        # branch 2: periodic (gshare-friendly)
        pattern = [True, False, False, True]
        streams += [(2, pattern[i % 4]) for i in range(4000)]
        rng.shuffle(streams)

        def accuracy(predictor):
            correct = sum(
                predictor.predict_and_update(pc, taken) for pc, taken in streams
            )
            return correct / len(streams)

        tournament = accuracy(TournamentPredictor(4096))
        bimodal = accuracy(BimodalPredictor(4096))
        assert tournament >= bimodal - 0.02

    def test_predict_and_update_reports_correctness(self):
        predictor = TournamentPredictor(1024)
        result = predictor.predict_and_update(5, predictor.predict(5))
        assert result is True


class TestPredictorOrdering:
    def test_stronger_machines_mispredict_less_on_hard_stream(self):
        """A gshare with history should beat static on a patterned stream."""
        pattern = [True, False, True, True, False, False]
        static = StaticPredictor()
        gshare = GSharePredictor(8192, history_bits=10)
        static_correct = gshare_correct = 0
        for i in range(6000):
            taken = pattern[i % 6]
            static_correct += static.predict_and_update(9, taken)
            gshare_correct += gshare.predict_and_update(9, taken)
        assert gshare_correct > static_correct
