import re
from dataclasses import FrozenInstanceError, replace

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
    serialize_model,
)
from spikesoc.errors import (
    CorruptImage,
    InconsistentDims,
    InvalidWeight,
    TruncatedImage,
    UnsupportedVersion,
)
from spikesoc.model import INT32_MAX, slot_values
from helpers import (
    COPIES,
    image_with_t_max,
    make_rng,
    pack_row,
    random_binary_weights,
    random_fixed_weights,
    random_model,
    spike_train,
    unpack_row,
)


class TestPackBinaryRow:
    def test_all_plus_one(self):
        assert pack_row([1] * 16) == [0xFFFF]

    def test_all_minus_one(self):
        assert pack_row([-1] * 16) == [0x0000]

    def test_alternating_sets_even_bits(self):
        row = [1 if i % 2 == 0 else -1 for i in range(16)]
        assert pack_row(row) == [0x5555]

    def test_one_overflow_bit_padding_zero(self):
        assert pack_row([1] * 17) == [0xFFFF, 0x0001]

    def test_rejects_weight_outside_domain(self):
        with pytest.raises(InvalidWeight):
            pack_row([1, 0, 1])
        with pytest.raises(InvalidWeight):
            pack_row([2])

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            pack_row([])

    def test_rejects_no_rows_and_ragged_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            BinaryWeights.from_rows([])
        with pytest.raises(ValueError, match="row 1 length 2 != 3"):
            BinaryWeights.from_rows([[1, 1, 1], [1, 1]])

    def test_rejects_a_cell_that_is_itself_a_sequence(self):
        with pytest.raises(InvalidWeight, match=r"index 0 is \[1\],"):
            BinaryWeights.from_rows([[[1], [1]]])

    def test_rejects_a_cell_that_is_not_an_integer(self):
        """A one-element array compares equal to 1 but is no weight, beside an
        integer cell or beside another such array; nor is a float."""
        for rows in ([[np.array([1]), 1]], [[np.array([1]), np.array([1])]]):
            with pytest.raises(InvalidWeight, match=r"index 0 is array\(\[1\]\), expected -1 or \+1"):
                BinaryWeights.from_rows(rows)
        with pytest.raises(InvalidWeight, match="index 1 is 1.0,"):
            BinaryWeights.from_rows([[1, 1.0]])

    def test_error_names_the_first_bad_index(self):
        with pytest.raises(InvalidWeight, match="index 1 is 'a',"):
            pack_row([1, "a", 3])
        with pytest.raises(InvalidWeight, match="index 2 is 0,"):
            BinaryWeights.from_rows([[1, -1, 1], [1, 1, 0], [2, 1, 1]])

    def test_matches_bit_by_bit_packing(self):
        rng = make_rng(17)
        for in_dim in (1, 7, 8, 9, 15, 16, 17, 33):
            row = [rng.choice((-1, 1)) for _ in range(in_dim)]
            words = [0] * ((in_dim + 15) // 16)
            for i, w in enumerate(row):
                words[i >> 4] |= (w == 1) << (i & 15)
            assert pack_row(row) == words


class TestUnpackBinaryRow:
    def test_full_word(self):
        assert unpack_row([0xFFFF], 16) == [1] * 16

    def test_bit_zero_only(self):
        assert unpack_row([0x0001], 4) == [1, -1, -1, -1]

    def test_nonzero_padding_rejected(self):
        with pytest.raises(CorruptWeightWord):
            unpack_row([0x0010], 4)  # bit 4 set, only 4 weights

    def test_wrong_word_count_rejected(self):
        with pytest.raises(ValueError):
            unpack_row([0xFFFF, 0x0001], 16)

    def test_word_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            unpack_row([0x10000], 4)

    def test_roundtrip_1000_random_rows(self):
        rng = make_rng(11)
        for _ in range(1000):
            in_dim = rng.randint(1, 100)
            row = [rng.choice((-1, 1)) for _ in range(in_dim)]
            assert unpack_row(pack_row(row), in_dim) == row

    def test_roundtrip_wide_rows(self):
        rng = make_rng(12)
        for in_dim in (1, 15, 16, 17, 1023, 1024, 4096):
            row = [rng.choice((-1, 1)) for _ in range(in_dim)]
            assert unpack_row(pack_row(row), in_dim) == row


class TestWeightMatrices:
    def test_binary_packed_size_formula(self):
        rng = make_rng(13)
        for _ in range(50):
            in_dim = rng.randint(1, 80)
            out_dim = rng.randint(1, 20)
            rows = [[rng.choice((-1, 1)) for _ in range(in_dim)] for _ in range(out_dim)]
            w = BinaryWeights.from_rows(rows)
            assert w.cells.nbytes == out_dim * ((in_dim + 15) // 16) * 2

    def test_sixteen_fold_ratio_when_in_dim_multiple_of_16(self):
        for in_dim, out_dim in ((16, 1), (784, 128), (64, 7)):
            rows = [[1] * in_dim for _ in range(out_dim)]
            b = BinaryWeights.from_rows(rows)
            f = Fixed16Weights(rows)
            assert b.cells.nbytes == (in_dim * out_dim) // 8
            assert f.cells.nbytes == in_dim * out_dim * 2
            assert f.cells.nbytes / b.cells.nbytes == 16.0

    def test_column_signs_match_rows(self):
        rng = make_rng(14)
        for in_dim in (21, 1, 15, 16, 17):
            rows = [[rng.choice((-1, 1)) for _ in range(in_dim)] for _ in range(5)]
            w = BinaryWeights.from_rows(rows)
            for i in range(in_dim):
                assert list(w.columns[i]) == [rows[j][i] for j in range(5)]
            assert w.matrix().dtype == np.int64
            assert w.matrix().tolist() == rows
            assert w.matrix().T.flags.c_contiguous
            fortran = BinaryWeights(in_dim=in_dim, words=np.asfortranarray(w.words))
            assert fortran.matrix().tolist() == rows
            assert fortran.matrix().T.flags.c_contiguous

    def test_fixed_column_matches_rows(self):
        rng = make_rng(15)
        rows = [[rng.randint(-32768, 32767) for _ in range(9)] for _ in range(4)]
        w = Fixed16Weights(rows)
        for i in range(9):
            assert list(w.columns[i]) == [rows[j][i] for j in range(4)]
        assert w.matrix().dtype == np.int64
        assert w.matrix().tolist() == rows
        assert w.matrix().T.flags.c_contiguous

    def test_columns_are_one_read_only_array_of_the_narrow_dtype(self):
        rng = make_rng(16)
        matrices = [random_binary_weights(rng, in_dim, 6) for in_dim in (1, 15, 16, 17)]
        matrices.append(random_fixed_weights(rng, 9, 4, magnitude=32767))
        for w in matrices:
            columns = w.columns
            binary = w.mode is WeightMode.BINARY
            assert type(columns) is np.ndarray and columns.dtype == (np.int8 if binary else np.int16)
            if binary:  # one byte per weight
                assert columns.nbytes == w.in_dim * w.out_dim
            assert columns.shape == (w.in_dim, w.out_dim)
            assert columns.flags.c_contiguous and not columns.flags.writeable
            assert np.array_equal(columns, w.matrix().T)
            assert w.columns is columns
            with pytest.raises(ValueError):
                columns[0, 0] = 1

    def test_fixed_rejects_out_of_range(self):
        for rows in ([[40000]], [[1.5, 2]], [[-32769]]):
            with pytest.raises(ValueError):
                Fixed16Weights(rows)
        w = Fixed16Weights([[1, 2]])
        with pytest.raises(ValueError):
            w.rows[0, 0] = 3

    @pytest.mark.parametrize(
        "rows, shape", [([], "(0,)"), ([1, 2], "(2,)"), ([[]], "(1, 0)")], ids=["no rows", "1-D", "empty row"]
    )
    def test_fixed_rejects_cells_that_are_not_a_non_empty_matrix(self, rows, shape):
        with pytest.raises(ValueError, match=rf"^weight matrix must be 2-D and non-empty, got shape {re.escape(shape)}$"):
            Fixed16Weights(rows)

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
        with pytest.raises(CorruptWeightWord, match="row 2 "):  # the first bad row, not the largest
            BinaryWeights(in_dim=4, words=[(0x000F,), (0x0001,), (0x0010,), (0x8000,)])


class TestDecodeLayout:
    """What the datapath and the oracle read from a decode, whatever makes it faster."""

    @pytest.mark.parametrize("tail", [0, 1, 15])
    def test_columns_are_the_transposed_matrix_at_every_tail(self, tail):
        rng = make_rng(160 + tail)
        shapes = [(16 * rng.randint(0 if tail else 1, 4) + tail, rng.randint(1, 40)) for _ in range(12)]
        for in_dim, out_dim in shapes + [(784, 600)] * (tail == 0):
            w = random_binary_weights(rng, in_dim, out_dim)
            i = np.arange(in_dim)
            bits = (w.words[:, i // 16] >> (i % 16)) & 1  # word i // 16, bit i % 16, LSB first
            matrix = w.matrix()
            assert matrix.dtype == np.int64 and matrix.flags.f_contiguous
            assert np.array_equal(matrix, 2 * bits.astype(np.int64) - 1)
            columns = w.columns
            assert columns.dtype == np.int8 and columns.shape == (in_dim, out_dim)
            assert columns.nbytes == in_dim * out_dim
            assert columns.flags.c_contiguous and not columns.flags.writeable
            assert np.array_equal(columns, matrix.T)

    def test_every_damaged_image_raises_its_own_class(self):
        """The loader leaves value checks to the types and wraps their ValueError:
        each damage of TestFlashImage still raises exactly the class it did."""
        blob = serialize_model(_minimal_model())
        chained = NetworkModel(
            mode=WeightMode.BINARY,
            t_max=64,
            layers=[
                (LayerConfig(4, 2), BinaryWeights.from_rows([[1] * 4, [-1] * 4])),
                (LayerConfig(2, 1), BinaryWeights.from_rows([[1, -1]])),
            ],
        )
        padded = serialize_model(
            NetworkModel(WeightMode.BINARY, 64, [(LayerConfig(4, 1), BinaryWeights.from_rows([[1, 1, -1, -1]]))])
        )

        def edit(image, offset, value):
            image = bytearray(image)
            image[offset] = value
            return bytes(image)

        cases = [
            (edit(blob, 0, blob[0] ^ 0xFF), NotAModelImage),
            (edit(blob, 4, 2), UnsupportedVersion),
            (edit(blob, 6, 2), CorruptImage),  # mode byte
            (edit(blob, 7, 0), CorruptImage),  # layer count
            *[(image_with_t_max(_minimal_model(), t), CorruptImage) for t in (3, 100, 255)],
            *[(blob[:cut], TruncatedImage) for cut in (6, 9, 12, 19, len(blob) - 1)],
            (blob + b"\x00", CorruptImage),
            (edit(padded, -1, padded[-1] | 0x80), CorruptWeightWord),
            (edit(serialize_model(chained), 20, 3), InconsistentDims),
            (edit(edit(blob, 14, 0), 15, 0), CorruptImage),  # alpha
            (edit(edit(blob, 10, 0), 11, 0), CorruptImage),  # in_dim
            (edit(edit(blob, 12, 0), 13, 0), CorruptImage),  # out_dim
        ]
        for image, error in cases:
            with pytest.raises(Exception) as raised:
                deserialize_model(image)
            assert type(raised.value) is error, (image.hex(), raised.value)


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

    @pytest.mark.parametrize("field", ["in_dim", "out_dim"])
    def test_dimensions_stop_at_the_flash_record_u16(self, field):
        other = "out_dim" if field == "in_dim" else "in_dim"
        assert getattr(LayerConfig(**{field: 0xFFFF, other: 1}), field) == 0xFFFF
        with pytest.raises(ValueError, match=r"\[1, 65535\]"):
            LayerConfig(**{field: 0x10000, other: 1})

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

    @pytest.mark.parametrize(
        "field, value", [("threshold", 2**40), ("in_dim", 0x10000), ("alpha_raw", 0)]
    )
    def test_fields_cannot_be_assigned(self, field, value):
        """A config keeps the values it was checked with: each of these would
        make an image that serialize_model cannot pack or the loader rejects."""
        cfg = LayerConfig(4, 1)
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == LayerConfig(4, 1)

    @pytest.mark.parametrize(
        "fields, field",
        [
            ((3, 2, 256, 1.5), "threshold"),
            ((3, 2, 256.5, 1), "alpha_raw"),
            ((3.0, 2, 256, 1), "in_dim"),
            ((3, 2.0, 256, 1), "out_dim"),
        ],
    )
    def test_every_field_is_an_integer(self, fields, field):
        """A float field would build a model that serialize_model cannot pack
        (or, as out_dim, one that run_network cannot index)."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            LayerConfig(*fields)

    def test_numpy_integer_fields_build_and_flash(self):
        cfg = LayerConfig(np.int64(3), np.uint16(2), np.int32(256), np.int32(INT32_MAX))
        assert all(type(getattr(cfg, f)) is int for f in ("in_dim", "out_dim", "alpha_raw", "threshold"))
        assert cfg.effective_threshold(WeightMode.BINARY) == INT32_MAX  # no int32 wrap
        weights = BinaryWeights.from_rows([[1, -1, 1], [-1, 1, 1]])
        model = NetworkModel(mode=WeightMode.BINARY, t_max=16, layers=[(cfg, weights)])
        assert deserialize_model(serialize_model(model)) == model


class TestSpikeTrain:
    def test_rejects_time_at_t_max(self):
        with pytest.raises(ValueError):
            SpikeTrain(np.array([16], np.int16), 16)

    def test_accepts_no_spike_slots(self):
        train = SpikeTrain(np.array([-1, 3, -1], np.int16), 16)
        assert train.active_count == 1
        assert slot_values(train.codes) == [None, 3, None]

    def test_rejects_bad_t_max(self):
        with pytest.raises(ValueError):
            SpikeTrain(np.array([], np.int16), 0)
        with pytest.raises(ValueError):
            SpikeTrain(np.array([], np.int16), 257)
        with pytest.raises(ValueError):
            SpikeTrain(np.array([0, 1], np.int16), 100)

    def test_constructor_takes_codes_and_t_max_only(self):
        # A second array beside the codes would give the sorter and the
        # decoder two different trains; the codes are the one stored form.
        with pytest.raises(TypeError):
            SpikeTrain(np.array([0, 1, -1], np.int16), 16, np.array([5, 5, 5], np.int16))

    def test_constructor_keeps_the_codes(self):
        train = SpikeTrain(np.array([0, 15, -1], np.int16), 16)
        assert train == spike_train((0, 15, None), 16)
        assert train.codes.tolist() == [0, 15, -1]
        assert train.active_count == 2

    @pytest.mark.parametrize(
        "codes, t_max",
        [
            (np.array([16], np.int16), 16),
            (np.array([-2], np.int16), 16),
            (np.array([0], np.int16), 100),
            (np.array([0, 65535]), 256),  # checked before narrowing: int16 reads -1
            (np.array([0, 65535], np.uint16), 256),
            # Only 1-D integer arrays are codes; astype would truncate floats.
            (np.array([0.0, 1.5]), 16),
            (np.array([True, False]), 16),
            (np.array([[0, 1], [2, 3]]), 16),
            (np.array(3), 16),
        ],
    )
    def test_constructor_rejects_what_the_slot_check_would(self, codes, t_max):
        with pytest.raises(ValueError):
            SpikeTrain(codes, t_max)

    def test_codes_of_any_integer_dtype_build_one_value(self):
        by_times = spike_train((0, 15, None, 7), 16)
        by_codes = SpikeTrain(np.array([0, 15, -1, 7], np.int64), 16)
        assert by_times == by_codes
        assert slot_values(by_codes.codes) == slot_values(by_times.codes) == [0, 15, None, 7]
        assert by_codes.codes.dtype == np.int16

    def test_is_unhashable(self):
        # Equality compares the codes arrays, which have no hash; so has no train.
        with pytest.raises(TypeError):
            hash(spike_train((0, None), 16))

    def test_one_code_or_t_max_makes_a_different_train(self):
        train = spike_train((0, 15, None), 16)
        assert train != spike_train((0, 14, None), 16)
        assert train != spike_train((0, 15, 0), 16)
        assert train != spike_train((0, 15, None), 32)
        assert train != spike_train((0, 15), 16)
        assert train != (0, 15, None)

    def test_codes_are_read_only_and_private(self):
        source = np.array([1, -1, 2], np.int16)
        by_codes = SpikeTrain(source, 16)
        for train in (spike_train((1, None, 2), 16), by_codes):
            with pytest.raises(ValueError):
                train.codes[0] = 5
        source[0] = 5  # the caller's array stays writable and is not the train's
        assert by_codes.codes.tolist() == [1, -1, 2]

    @pytest.mark.parametrize("clone", COPIES, ids=["pickle", "deepcopy", "copy"])
    def test_pickled_and_copied_trains_stay_read_only(self, clone):
        train = spike_train((1, None, 2), 16)
        twin = clone(train)
        with pytest.raises(ValueError):
            twin.codes[0] = 5
        assert twin == train and slot_values(twin.codes) == [1, None, 2]
        assert twin.codes.dtype == np.int16

    def test_replace_rebuilds_through_the_one_check(self):
        train = spike_train((1, None, 15), 16)
        wider = replace(train, t_max=32)
        assert wider.t_max == 32 and wider.codes.tolist() == [1, -1, 15]
        assert wider == SpikeTrain(train.codes, 32) and not wider.codes.flags.writeable
        for t_max in (8, 100, 0):  # 15 is past an 8-step window
            with pytest.raises(ValueError):
                replace(train, t_max=t_max)
        for codes in (np.array([1, 16]), np.array([1, -2]), np.array([1.0]), np.array([[1]])):
            with pytest.raises(ValueError):
                replace(train, codes=codes)

    def test_attributes_cannot_be_assigned(self):
        train = spike_train((1, None), 16)
        for name, value in (("t_max", 32), ("codes", np.array([0, 0], np.int16))):
            with pytest.raises(FrozenInstanceError):
                setattr(train, name, value)
        assert train == spike_train((1, None), 16)


class TestNetworkModel:
    def test_chain_mismatch_rejected(self):
        layers = [
            (LayerConfig(4, 3), BinaryWeights.from_rows([[1] * 4] * 3)),
            (LayerConfig(2, 1), BinaryWeights.from_rows([[1] * 2])),
        ]
        with pytest.raises(InconsistentDims):
            NetworkModel(mode=WeightMode.BINARY, t_max=64, layers=layers)

    @pytest.mark.parametrize(
        "cfg, rows",
        [((4, 2), [[1] * 4]), ((4, 1), [[1] * 5]), ((4, 1), [[1] * 3, [1] * 3])],
        ids=["one neuron short", "one input over", "both off"],
    )
    def test_weights_of_another_shape_than_their_config_rejected(self, cfg, rows):
        layers = [(LayerConfig(*cfg), BinaryWeights.from_rows(rows))]
        with pytest.raises(ValueError, match="^layer 0 weight shape disagrees with its config$"):
            NetworkModel(mode=WeightMode.BINARY, t_max=64, layers=layers)

    def test_mode_kind_mismatch_rejected(self):
        layers = [(LayerConfig(4, 1), Fixed16Weights([[1] * 4]))]
        with pytest.raises(ValueError):
            NetworkModel(mode=WeightMode.BINARY, t_max=64, layers=layers)

    def test_t_max_cap(self):
        layers = [(LayerConfig(4, 1), BinaryWeights.from_rows([[1] * 4]))]
        for t_max in (257, 3, 100, 255):  # above the cap, or not a power of two
            with pytest.raises(ValueError):
                NetworkModel(mode=WeightMode.BINARY, t_max=t_max, layers=layers)

    @pytest.mark.parametrize("count", [1, 255])
    def test_every_layer_count_the_flash_header_u8_holds_builds(self, count):
        layers = [(LayerConfig(1, 1), BinaryWeights.from_rows([[1]]))] * count
        model = NetworkModel(mode=WeightMode.BINARY, t_max=4, layers=layers)
        assert len(deserialize_model(serialize_model(model)).layers) == count

    @pytest.mark.parametrize("count", [0, 256])
    def test_other_layer_counts_are_rejected(self, count):
        layers = [(LayerConfig(1, 1), BinaryWeights.from_rows([[1]]))] * count
        with pytest.raises(ValueError, match=f"1 to 255 layers, got {count}"):
            NetworkModel(mode=WeightMode.BINARY, t_max=4, layers=layers)

    def test_a_built_model_cannot_change(self):
        """Neither a 256th layer nor a field past its flash width can get into
        a built model, so serialize_model never meets one."""
        layer = (LayerConfig(1, 1), BinaryWeights.from_rows([[1]]))
        model = NetworkModel(mode=WeightMode.BINARY, t_max=4, layers=[list(layer)] * 255)
        assert model.layers == (layer,) * 255  # a tuple of (config, weights) tuples
        with pytest.raises(AttributeError):
            model.layers.append(layer)
        with pytest.raises(TypeError):
            model.layers[0] = layer
        with pytest.raises(TypeError):
            model.layers[0][0] = LayerConfig(1, 1, threshold=1)
        with pytest.raises(FrozenInstanceError):
            model.layers[0][0].threshold = 2**40
        for field, value in [("layers", [layer] * 256), ("t_max", 512), ("mode", WeightMode.FIXED16)]:
            with pytest.raises(FrozenInstanceError):
                setattr(model, field, value)
        assert len(deserialize_model(serialize_model(model)).layers) == 255


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

    def test_replace_t_max_keeps_weights(self):
        m = _minimal_model()
        m2 = replace(m, t_max=64)
        assert m2.t_max == 64
        assert m2.layers == m.layers
        with pytest.raises(ValueError):  # replace re-runs the model's checks
            replace(m, t_max=100)
