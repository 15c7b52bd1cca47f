from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from spikesoc import (
    BinaryWeights,
    CorruptWeightWord,
    Fixed16Weights,
    LayerConfig,
    NetworkModel,
    NotAModelImage,
    SpikeTrain,
    WeightMode,
    deserialize_model,
    pack_binary_row,
    serialize_model,
    unpack_binary_row,
)
from spikesoc.errors import (
    CorruptImage,
    InconsistentDims,
    InvalidWeight,
    TruncatedImage,
    UnsupportedVersion,
)
from helpers import (
    COPIES,
    image_with_t_max,
    make_rng,
    random_binary_weights,
    random_fixed_weights,
    random_model,
)


class TestPackBinaryRow:
    def test_all_plus_one(self):
        assert pack_binary_row([1] * 16) == [0xFFFF]

    def test_all_minus_one(self):
        assert pack_binary_row([-1] * 16) == [0x0000]

    def test_alternating_sets_even_bits(self):
        row = [1 if i % 2 == 0 else -1 for i in range(16)]
        assert pack_binary_row(row) == [0x5555]

    def test_one_overflow_bit_padding_zero(self):
        assert pack_binary_row([1] * 17) == [0xFFFF, 0x0001]

    def test_rejects_weight_outside_domain(self):
        with pytest.raises(InvalidWeight):
            pack_binary_row([1, 0, 1])
        with pytest.raises(InvalidWeight):
            pack_binary_row([2])

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            pack_binary_row([])

    def test_error_names_the_first_bad_index(self):
        with pytest.raises(InvalidWeight, match="index 1 is 'a',"):
            pack_binary_row([1, "a", 3])
        with pytest.raises(InvalidWeight, match="index 2 is 0,"):
            BinaryWeights.from_rows([[1, -1, 1], [1, 1, 0], [2, 1, 1]])

    def test_matches_bit_by_bit_packing(self):
        rng = make_rng(17)
        for in_dim in (1, 7, 8, 9, 15, 16, 17, 33):
            row = [rng.choice((-1, 1)) for _ in range(in_dim)]
            words = [0] * ((in_dim + 15) // 16)
            for i, w in enumerate(row):
                words[i >> 4] |= (w == 1) << (i & 15)
            assert pack_binary_row(row) == words


class TestUnpackBinaryRow:
    def test_full_word(self):
        assert unpack_binary_row([0xFFFF], 16) == [1] * 16

    def test_bit_zero_only(self):
        assert unpack_binary_row([0x0001], 4) == [1, -1, -1, -1]

    def test_nonzero_padding_rejected(self):
        with pytest.raises(CorruptWeightWord):
            unpack_binary_row([0x0010], 4)  # bit 4 set, only 4 weights

    def test_wrong_word_count_rejected(self):
        with pytest.raises(ValueError):
            unpack_binary_row([0xFFFF, 0x0001], 16)

    def test_word_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            unpack_binary_row([0x10000], 4)

    def test_roundtrip_1000_random_rows(self):
        rng = make_rng(11)
        for _ in range(1000):
            in_dim = rng.randint(1, 100)
            row = [rng.choice((-1, 1)) for _ in range(in_dim)]
            assert unpack_binary_row(pack_binary_row(row), in_dim) == row

    def test_roundtrip_wide_rows(self):
        rng = make_rng(12)
        for in_dim in (1, 15, 16, 17, 1023, 1024, 4096):
            row = [rng.choice((-1, 1)) for _ in range(in_dim)]
            assert unpack_binary_row(pack_binary_row(row), in_dim) == row


class TestWeightMatrices:
    def test_binary_packed_size_formula(self):
        rng = make_rng(13)
        for _ in range(50):
            in_dim = rng.randint(1, 80)
            out_dim = rng.randint(1, 20)
            rows = [[rng.choice((-1, 1)) for _ in range(in_dim)] for _ in range(out_dim)]
            w = BinaryWeights.from_rows(rows)
            assert w.weight_bytes == out_dim * ((in_dim + 15) // 16) * 2

    def test_sixteen_fold_ratio_when_in_dim_multiple_of_16(self):
        for in_dim, out_dim in ((16, 1), (784, 128), (64, 7)):
            rows = [[1] * in_dim for _ in range(out_dim)]
            b = BinaryWeights.from_rows(rows)
            f = Fixed16Weights.from_rows(rows)
            assert b.weight_bytes == (in_dim * out_dim) // 8
            assert f.weight_bytes == in_dim * out_dim * 2
            assert f.weight_bytes / b.weight_bytes == 16.0

    def test_column_signs_match_rows(self):
        rng = make_rng(14)
        for in_dim in (21, 1, 15, 16, 17):
            rows = [[rng.choice((-1, 1)) for _ in range(in_dim)] for _ in range(5)]
            w = BinaryWeights.from_rows(rows)
            for i in range(in_dim):
                assert list(w.columns[i]) == [rows[j][i] for j in range(5)]
            assert w.matrix().dtype == np.int64
            assert w.matrix().tolist() == rows
            fortran = BinaryWeights(in_dim=in_dim, words=np.asfortranarray(w.words))
            assert fortran.matrix().tolist() == rows

    def test_fixed_column_matches_rows(self):
        rng = make_rng(15)
        rows = [[rng.randint(-32768, 32767) for _ in range(9)] for _ in range(4)]
        w = Fixed16Weights.from_rows(rows)
        for i in range(9):
            assert list(w.columns[i]) == [rows[j][i] for j in range(4)]
        assert w.matrix().dtype == np.int64
        assert w.matrix().tolist() == rows

    def test_columns_are_one_read_only_int16_array(self):
        rng = make_rng(16)
        matrices = [random_binary_weights(rng, in_dim, 6) for in_dim in (1, 15, 16, 17)]
        matrices.append(random_fixed_weights(rng, 9, 4, magnitude=32767))
        for w in matrices:
            columns = w.columns
            assert type(columns) is np.ndarray and columns.dtype == np.int16
            assert columns.shape == (w.in_dim, w.out_dim)
            assert columns.flags.c_contiguous and not columns.flags.writeable
            assert np.array_equal(columns, w.matrix().T)
            assert w.columns is columns
            with pytest.raises(ValueError):
                columns[0, 0] = 1

    def test_fixed_rejects_out_of_range(self):
        for rows in ([[40000]], [[1.5, 2]], [[-32769]]):
            with pytest.raises(ValueError):
                Fixed16Weights.from_rows(rows)
        w = Fixed16Weights.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            w.rows[0, 0] = 3

    def test_binary_rejects_out_of_range(self):
        for words in ([(0x10000,)], [(-1,)], [(1.5,)]):
            with pytest.raises(ValueError):
                BinaryWeights(in_dim=4, words=words)
        w = BinaryWeights(in_dim=16, words=[(0x00FF,)])
        with pytest.raises(ValueError):
            w.words[0, 0] = 0

    def test_binary_constructor_rejects_padding(self):
        with pytest.raises(CorruptWeightWord):
            BinaryWeights(in_dim=4, words=[(0x0010,)])


class TestLayerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LayerConfig(0, 1)
        with pytest.raises(ValueError):
            LayerConfig(1, 0)
        with pytest.raises(ValueError):
            LayerConfig(1, 1, alpha_raw=0)
        with pytest.raises(ValueError):
            LayerConfig(1, 1, threshold=1 << 31)

    def test_effective_threshold_folds_alpha_in_binary_mode(self):
        # alpha = 2.0 stored as 512; raw threshold 4 -> effective 2
        cfg = LayerConfig(8, 1, alpha_raw=512, threshold=4)
        assert cfg.effective_threshold(WeightMode.BINARY) == 2
        assert cfg.effective_threshold(WeightMode.FIXED16) == 4

    def test_effective_threshold_rounds_half_away_from_zero(self):
        assert LayerConfig(1, 1, alpha_raw=512, threshold=3).effective_threshold(
            WeightMode.BINARY
        ) == 2  # 1.5 -> 2
        assert LayerConfig(1, 1, alpha_raw=512, threshold=-3).effective_threshold(
            WeightMode.BINARY
        ) == -2  # -1.5 -> -2
        assert LayerConfig(1, 1, alpha_raw=1024, threshold=1).effective_threshold(
            WeightMode.BINARY
        ) == 0  # 0.25 -> 0

    def test_alpha_property(self):
        assert LayerConfig(1, 1, alpha_raw=384).alpha == 1.5


class TestSpikeTrain:
    def test_rejects_time_at_t_max(self):
        with pytest.raises(ValueError):
            SpikeTrain((16,), 16)

    def test_accepts_no_spike_slots(self):
        train = SpikeTrain((None, 3, None), 16)
        assert train.active_count == 1
        assert list(train) == [None, 3, None]

    def test_rejects_bad_t_max(self):
        with pytest.raises(ValueError):
            SpikeTrain((), 0)
        with pytest.raises(ValueError):
            SpikeTrain((), 257)
        with pytest.raises(ValueError):
            SpikeTrain((0, 1), 100)

    def test_codes_cannot_be_passed_beside_times(self):
        # Codes that disagree with times would give the sorter and the decoder
        # two different trains; codes are always derived.
        with pytest.raises(TypeError):
            SpikeTrain((0, 1, None), 16, np.array([5, 5, 5], np.int16))

    def test_from_codes_derives_times(self):
        train = SpikeTrain.from_codes(np.array([0, 15, -1], np.int16), 16)
        assert train == SpikeTrain((0, 15, None), 16)
        assert train.codes.tolist() == [0, 15, -1]
        assert train.active_count == 2

    @pytest.mark.parametrize(
        "codes, t_max",
        [
            (np.array([16], np.int16), 16),
            (np.array([-2], np.int16), 16),
            (np.array([0], np.int16), 100),
            (np.array([0, 65535]), 256),  # checked before narrowing: int16 reads -1
            # Only 1-D integer arrays are codes; astype would truncate floats.
            (np.array([0.0, 1.5]), 16),
            (np.array([True, False]), 16),
            (np.array([[0, 1], [2, 3]]), 16),
            (np.array(3), 16),
        ],
    )
    def test_from_codes_rejects_what_times_would(self, codes, t_max):
        with pytest.raises(ValueError):
            SpikeTrain.from_codes(codes, t_max)

    def test_times_and_codes_build_one_value(self):
        by_times = SpikeTrain((0, 15, None, 7), 16)
        by_codes = SpikeTrain.from_codes(np.array([0, 15, -1, 7], np.int64), 16)
        assert by_times == by_codes
        assert hash(by_times) == hash(by_codes) == hash(((0, 15, None, 7), 16))
        assert by_codes.times == by_times.times == (0, 15, None, 7)
        assert len(by_codes) == 4
        assert list(by_codes) == [0, 15, None, 7]

    def test_one_code_or_t_max_makes_a_different_train(self):
        train = SpikeTrain((0, 15, None), 16)
        assert train != SpikeTrain((0, 14, None), 16)
        assert train != SpikeTrain((0, 15, 0), 16)
        assert train != SpikeTrain((0, 15, None), 32)
        assert train != SpikeTrain((0, 15), 16)
        assert train != (0, 15, None)

    def test_codes_are_read_only_and_private(self):
        source = np.array([1, -1, 2], np.int16)
        by_codes = SpikeTrain.from_codes(source, 16)
        for train in (SpikeTrain((1, None, 2), 16), by_codes):
            with pytest.raises(ValueError):
                train.codes[0] = 5
        source[0] = 5  # the caller's array stays writable and is not the train's
        assert by_codes.codes.tolist() == [1, -1, 2]

    @pytest.mark.parametrize("clone", COPIES, ids=["pickle", "deepcopy", "copy"])
    def test_pickled_and_copied_trains_stay_read_only(self, clone):
        train = SpikeTrain((1, None, 2), 16)
        assert train.times == (1, None, 2)  # cached before the copy is made
        twin = clone(train)
        with pytest.raises(ValueError):
            twin.codes[0] = 5
        assert twin == train and twin.times == (1, None, 2) and hash(twin) == hash(train)

    def test_attributes_cannot_be_assigned(self):
        train = SpikeTrain((1, None), 16)
        for name, value in (("t_max", 32), ("codes", np.array([0, 0], np.int16))):
            with pytest.raises(FrozenInstanceError):
                setattr(train, name, value)
        assert train == SpikeTrain((1, None), 16)


class TestNetworkModel:
    def test_chain_mismatch_rejected(self):
        layers = [
            (LayerConfig(4, 3), BinaryWeights.from_rows([[1] * 4] * 3)),
            (LayerConfig(2, 1), BinaryWeights.from_rows([[1] * 2])),
        ]
        with pytest.raises(InconsistentDims):
            NetworkModel(mode=WeightMode.BINARY, t_max=64, layers=layers)

    def test_mode_kind_mismatch_rejected(self):
        layers = [(LayerConfig(4, 1), Fixed16Weights.from_rows([[1] * 4]))]
        with pytest.raises(ValueError):
            NetworkModel(mode=WeightMode.BINARY, t_max=64, layers=layers)

    def test_t_max_cap(self):
        layers = [(LayerConfig(4, 1), BinaryWeights.from_rows([[1] * 4]))]
        for t_max in (257, 3, 100, 255):  # above the cap, or not a power of two
            with pytest.raises(ValueError):
                NetworkModel(mode=WeightMode.BINARY, t_max=t_max, layers=layers)


def _minimal_model():
    return NetworkModel(
        mode=WeightMode.BINARY,
        t_max=256,
        layers=[
            (LayerConfig(16, 2, 256, 1), BinaryWeights.from_rows([[1] * 16, [-1] * 16]))
        ],
    )


class TestFlashImage:
    def test_minimal_model_roundtrip(self):
        m = _minimal_model()
        blob = serialize_model(m)
        # header 10 + one 10-byte layer record + 2 rows of one word each
        assert len(blob) == 10 + 10 + 4
        assert blob[:4] == b"SNN1"
        assert blob[8:10] == (256).to_bytes(2, "little")
        m2 = deserialize_model(blob)
        assert m2 == m
        assert serialize_model(m2) == blob

    def test_tampered_magic_rejected(self):
        blob = bytearray(serialize_model(_minimal_model()))
        blob[0] ^= 0xFF
        with pytest.raises(NotAModelImage):
            deserialize_model(bytes(blob))

    def test_version_mismatch_rejected(self):
        blob = bytearray(serialize_model(_minimal_model()))
        blob[4] = 2
        with pytest.raises(UnsupportedVersion):
            deserialize_model(bytes(blob))

    def test_bad_mode_byte_rejected(self):
        blob = bytearray(serialize_model(_minimal_model()))
        blob[6] = 2
        with pytest.raises(CorruptImage):
            deserialize_model(bytes(blob))

    def test_zero_layer_count_rejected(self):
        blob = bytearray(serialize_model(_minimal_model()))
        blob[7] = 0
        with pytest.raises(CorruptImage):
            deserialize_model(bytes(blob))

    def test_non_power_of_two_t_max_rejected(self):
        for t_max in (3, 100, 255):
            with pytest.raises(CorruptImage):
                deserialize_model(image_with_t_max(_minimal_model(), t_max))

    def test_truncations_rejected(self):
        blob = serialize_model(_minimal_model())
        for cut in (6, 9, 12, 19, len(blob) - 1):
            with pytest.raises(TruncatedImage):
                deserialize_model(blob[:cut])

    def test_trailing_bytes_rejected(self):
        blob = serialize_model(_minimal_model())
        with pytest.raises(CorruptImage):
            deserialize_model(blob + b"\x00")

    def test_nonzero_padding_in_blob_rejected(self):
        m = NetworkModel(
            mode=WeightMode.BINARY,
            t_max=64,
            layers=[(LayerConfig(4, 1), BinaryWeights.from_rows([[1, 1, -1, -1]]))],
        )
        blob = bytearray(serialize_model(m))
        blob[-1] |= 0x80  # bit 15 of the only weight word, beyond in_dim=4
        with pytest.raises(CorruptWeightWord):
            deserialize_model(bytes(blob))

    def test_chain_mismatch_in_image_rejected(self):
        m = NetworkModel(
            mode=WeightMode.BINARY,
            t_max=64,
            layers=[
                (LayerConfig(4, 2), BinaryWeights.from_rows([[1] * 4, [-1] * 4])),
                (LayerConfig(2, 1), BinaryWeights.from_rows([[1, -1]])),
            ],
        )
        blob = bytearray(serialize_model(m))
        # second layer record starts at 10 + 10; corrupt its in_dim
        blob[20] = 3
        with pytest.raises(InconsistentDims):
            deserialize_model(bytes(blob))

    def test_zero_alpha_in_image_rejected(self):
        blob = bytearray(serialize_model(_minimal_model()))
        blob[14] = 0
        blob[15] = 0  # alpha field of layer record 0
        with pytest.raises(CorruptImage):
            deserialize_model(bytes(blob))

    def test_1000_random_models_roundtrip_byte_exact(self):
        rng = make_rng(16)
        for _ in range(1000):
            m = random_model(rng, max_layers=3, max_dim=24)
            blob = serialize_model(m)
            m2 = deserialize_model(blob)
            assert m2 == m
            assert serialize_model(m2) == blob

    def test_with_t_max_keeps_weights(self):
        m = _minimal_model()
        m2 = m.with_t_max(64)
        assert m2.t_max == 64
        assert m2.layers == m.layers
