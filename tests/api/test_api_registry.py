"""The unified codec registry: stable ids, protocol dispatch, typed errors."""

import numpy as np
import pytest

import repro.api as api
from repro.api import (
    CODEC_IDS,
    CapabilityError,
    Codec,
    CodecCapabilities,
    UnknownCodecError,
    build_request,
    codec_class,
    codec_name,
    registry,
)
from repro.core.container import CompressedBlob


class TestStableIds:
    def test_ids_unchanged(self):
        """These ids are persisted in streams — renumbering breaks archives."""
        assert CODEC_IDS == {
            "cusz-hi-cr": 1,
            "cusz-hi-tp": 2,
            "cusz-hi": 3,
            "cusz-hi-tiled": 4,
            "cusz-l": 10,
            "cusz-i": 11,
            "cusz-ib": 12,
            "cuszp2": 20,
            "cuzfp": 30,
            "fzgpu": 40,
        }

    def test_every_user_facing_name_registered(self):
        names = registry.names()
        assert set(names) == set(CODEC_IDS) - {"cusz-hi-tiled"}
        # wire-only ids stay resolvable for decode even though hidden
        assert codec_class(CODEC_IDS["cusz-hi-tiled"]) is not None

    def test_entries_carry_wire_ids(self):
        for name in registry.names():
            assert registry.entry(name).codec_id == CODEC_IDS[name]


class TestProtocol:
    def test_every_codec_satisfies_the_protocol(self):
        for name in registry.names():
            codec = registry.get(name)
            assert isinstance(codec, Codec), name
            assert codec.name == name
            assert isinstance(codec.capabilities(), CodecCapabilities)

    def test_compress_returns_result_with_stripped_request(self, smooth3d):
        codec = registry.get("cusz-l")
        request = build_request(codec="cusz-l", eb=1e-3).with_data(smooth3d)
        result = codec.compress(request)
        assert result.codec == "cusz-l"
        assert result.request.data is None
        assert result.wall_s > 0
        assert result.shape == smooth3d.shape
        recon = codec.decompress(result.blob)
        assert np.abs(smooth3d.astype(np.float64) - recon).max() <= result.error_bound

    def test_request_without_data_rejected(self):
        codec = registry.get("cusz-hi-cr")
        with pytest.raises(api.RequestError, match="carries no data"):
            codec.compress(build_request())

    def test_mismatched_dispatch_rejected(self, smooth3d):
        """A request naming codec A handed to codec B's adapter must fail
        up front, not validate against the wrong capability set."""
        codec = registry.get("cusz-l")
        request = build_request(codec="cusz-hi-cr", eb=1e-2).with_data(smooth3d)
        with pytest.raises(api.RequestError, match="dispatched to 'cusz-l'"):
            codec.compress(request)

    def test_capabilities_table_lists_all(self):
        table = registry.table()
        assert set(table) == set(registry.names())
        assert table["cusz-hi-cr"]["tiling"] is True
        assert table["fzgpu"]["tiling"] is False
        assert table["cuzfp"]["error_bounded"] is False


class TestDispatchFailures:
    """Satellite contract: every dispatch failure path raises a typed error
    with the codec name (or wire id) in the message."""

    def test_unknown_codec_id_in_container_blob(self, smooth3d):
        blob = api.compress(smooth3d, build_request(eb=1e-2)).blob
        blob.codec = 209  # an id nothing has registered
        payload = blob.to_bytes()
        with pytest.raises(UnknownCodecError, match="209") as exc_info:
            api.decompress(payload)
        assert isinstance(exc_info.value, KeyError)  # old catch sites keep working

    def test_unregistered_name_in_registry_get(self):
        with pytest.raises(UnknownCodecError, match="'zstd-hi'"):
            registry.get("zstd-hi")

    def test_capability_mismatch_4d_into_3d_baseline(self):
        field4d = np.zeros((4, 4, 4, 4), dtype=np.float32)
        request = build_request(codec="cuszp2", eb=1e-2)
        with pytest.raises(CapabilityError, match="cuszp2") as exc_info:
            api.compress(field4d, request)
        assert "4-D" in str(exc_info.value)

    def test_capability_mismatch_dtype(self):
        ints = np.zeros((4, 4), dtype=np.int32)
        with pytest.raises(CapabilityError, match="cusz-hi-cr"):
            api.compress(ints, build_request(eb=1e-2))

    def test_fixed_rate_codec_requires_rate_option(self, smooth3d):
        with pytest.raises(CapabilityError, match="cuzfp"):
            api.compress(smooth3d, build_request(codec="cuzfp"))

    def test_register_name_without_wire_id_rejected(self):
        with pytest.raises(UnknownCodecError, match="not-in-table"):
            api.register_codec("not-in-table")(object)


class TestFacade:
    def test_compress_kwargs_build_a_request(self, smooth2d):
        result = api.compress(smooth2d, eb=1e-2, mode="tp")
        assert result.codec == "cusz-hi-tp"
        assert codec_name(result.blob.codec) == "cusz-hi-tp"

    def test_compress_rejects_request_plus_kwargs(self, smooth2d):
        with pytest.raises(api.RequestError, match="not both"):
            api.compress(smooth2d, build_request(), eb=1e-2)

    def test_decompress_bytes_round_trip(self, smooth2d):
        result = api.compress(smooth2d, eb=1e-2)
        recon = api.decompress(result.to_bytes())
        assert np.abs(smooth2d.astype(np.float64) - recon).max() <= result.error_bound

    def test_kernel_for_matches_request(self):
        request = build_request(mode="tp", eb=1e-2, tiles=(8, 8), workers=1)
        kernel = api.kernel_for(request)
        assert kernel.config.tile_shape == (8, 8)
        from repro.encoders.pipelines import TP_PIPELINE

        assert kernel.config.pipeline == TP_PIPELINE

    def test_result_to_dict(self, smooth2d):
        doc = api.compress(smooth2d, eb=1e-2).to_dict()
        assert doc["codec"] == "cusz-hi-cr"
        assert doc["cr"] > 1 and doc["nbytes"] > 0 and doc["wall_s"] >= 0

    def test_options_forward_into_baseline_kernels(self, smooth3d):
        plain = api.compress(
            smooth3d, build_request(codec="cuszp2", eb=1e-2, options={"mode": "plain"})
        )
        assert "plain-widths" in plain.blob.segments
        with pytest.raises(CapabilityError, match="cuszp2"):
            api.compress(smooth3d, build_request(codec="cuszp2", options={"mode": "wat"}))

    def test_pipeline_override(self, smooth2d):
        result = api.compress(smooth2d, build_request(codec="cusz-hi", eb=1e-2, pipeline="HF"))
        assert result.blob.meta["pipeline"] == "HF"
        recon = api.decompress(result.blob)
        assert np.abs(smooth2d.astype(np.float64) - recon).max() <= result.error_bound

    def test_engine_rejects_unknown_options(self, smooth2d):
        """The engine takes no options; silently dropping them would hide
        typos and stale carry-overs from baseline requests."""
        with pytest.raises(CapabilityError, match="accepts no options"):
            api.compress(smooth2d, build_request(eb=1e-2, options={"rate": 8}))


class TestHarnessBridge:
    """repro.analysis.harness resolves kernels through the registry but
    keeps its old fixed-eb contract."""

    def test_make_compressor_rejects_fixed_rate_kernels(self):
        from repro.analysis.harness import make_compressor

        with pytest.raises(KeyError, match="fixed-rate"):
            make_compressor("cuzfp")

    def test_make_compressor_unknown_name(self):
        from repro.analysis.harness import make_compressor

        with pytest.raises(KeyError, match="unknown compressor"):
            make_compressor("gzip")

    def test_factories_mapping_is_consistent(self):
        from repro.analysis.harness import COMPRESSOR_FACTORIES

        assert "cuzfp" not in COMPRESSOR_FACTORIES
        with pytest.raises(KeyError):
            COMPRESSOR_FACTORIES["cuzfp"]
        with pytest.raises(KeyError):
            COMPRESSOR_FACTORIES["gzip"]  # raises at subscript, not call, time
        for name in COMPRESSOR_FACTORIES:
            assert name in COMPRESSOR_FACTORIES
            assert callable(COMPRESSOR_FACTORIES[name])


class TestLegacyShims:
    """The pre-1.4 keyword surface was removed in 1.6; the blessed forms
    remain."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "tp"},
            {"codec": "fzgpu"},
            {"tile_shape": (32, 32)},
            {"workers": 2},
            {"executor": "threads"},
        ],
    )
    def test_removed_keywords_raise_type_error(self, smooth2d, kwargs):
        import repro

        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.compress(smooth2d, 1e-2, **kwargs)

    def test_plain_call_does_not_warn(self, smooth2d):
        import repro
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            blob = repro.compress(smooth2d, 1e-2)
        assert blob.codec == CODEC_IDS["cusz-hi-cr"]

    def test_missing_eb_still_a_hard_error(self, smooth2d):
        """eb was a required positional pre-1.4; omitting it must not
        silently compress under a defaulted bound."""
        import repro

        with pytest.raises(TypeError, match="error bound"):
            repro.compress(smooth2d)

    def test_top_level_codec_class_still_exported(self, smooth2d):
        import repro

        blob = repro.compress(smooth2d, 1e-2)
        assert repro.codec_class(blob.codec)().decompress(blob).shape == smooth2d.shape

    def test_request_kwarg_returns_blob(self, smooth2d):
        import repro

        blob = repro.compress(smooth2d, request=build_request(eb=1e-2))
        assert isinstance(blob, CompressedBlob)

    def test_eb_alongside_request_is_a_conflict(self, smooth2d):
        """Regression: an explicit eb next to a request was silently ignored
        in favor of the request's (possibly much looser) bound."""
        import repro

        with pytest.raises(api.RequestError, match="not both"):
            repro.compress(smooth2d, 1e-6, request=build_request(eb=1e-2))
