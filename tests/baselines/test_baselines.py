"""Baseline compressors: bound guarantees, round-trips, stream dispatch."""

import numpy as np
import pytest

import repro
from repro.baselines import CuszI, CuszIB, CuszL, CuszP2, FzGpu
from repro.api import CODEC_IDS

FIXED_EB = [
    ("cusz-l", CuszL),
    ("cusz-i", CuszI),
    ("cusz-ib", CuszIB),
    ("cuszp2", CuszP2),
    ("fzgpu", FzGpu),
]


@pytest.mark.parametrize("name,cls", FIXED_EB)
class TestFixedEbBaselines:
    def test_roundtrip_bound(self, name, cls, smooth3d):
        comp = cls()
        blob = comp.compress(smooth3d, 1e-3)
        out = comp.decompress(blob)
        assert blob.codec == CODEC_IDS[name]
        assert np.abs(smooth3d.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_dispatch_through_registry(self, name, cls, smooth2d):
        blob = cls().compress(smooth2d, 1e-2)
        out = repro.decompress(blob.to_bytes())
        assert np.abs(smooth2d.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_noisy_data_bound(self, name, cls, noisy3d):
        comp = cls()
        blob = comp.compress(noisy3d, 1e-4)
        out = comp.decompress(blob)
        assert np.abs(noisy3d.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_kernel_traces(self, name, cls, smooth3d):
        comp = cls()
        blob = comp.compress(smooth3d, 1e-2)
        comp.decompress(blob)
        assert len(comp.last_comp_trace) >= 1
        assert len(comp.last_decomp_trace) >= 1


class TestCuszIConfiguration:
    def test_anchor_stride_8(self, smooth3d):
        blob = CuszI().compress(smooth3d, 1e-3)
        assert blob.meta["anchor_stride"] == "8"
        assert blob.meta["reorder"] == "0"
        assert blob.meta["pipeline"] == "HF"

    def test_ib_appends_bitcomp(self, smooth3d):
        blob = CuszIB().compress(smooth3d, 1e-3)
        assert blob.meta["pipeline"] == "HF+nvCOMP::Bitcomp"

    def test_ib_never_worse_than_i_much(self, smooth3d):
        """Bitcomp post-pass costs at most its stored-mode overhead."""
        cr_i = CuszI().compress(smooth3d, 1e-2).compression_ratio
        cr_ib = CuszIB().compress(smooth3d, 1e-2).compression_ratio
        assert cr_ib >= 0.95 * cr_i


class TestCuszP2Modes:
    def test_plain_mode_roundtrip(self, smooth3d):
        comp = CuszP2(mode="plain")
        blob = comp.compress(smooth3d, 1e-3)
        out = comp.decompress(blob)
        assert np.abs(smooth3d.astype(np.float64) - out.astype(np.float64)).max() <= blob.error_bound

    def test_outlier_mode_beats_plain(self, smooth3d):
        """The zero-block bitmap must help on smooth data (paper §6.1.2)."""
        cr_out = CuszP2(mode="outlier").compress(smooth3d, 1e-2).compression_ratio
        cr_plain = CuszP2(mode="plain").compress(smooth3d, 1e-2).compression_ratio
        assert cr_out >= cr_plain

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            CuszP2(mode="turbo")


def test_interpolation_beats_lorenzo_on_smooth(smooth3d):
    """§4: spline decomposition out-compresses Lorenzo on smooth fields."""
    cr_i = CuszI().compress(smooth3d, 1e-2).compression_ratio
    cr_l = CuszL().compress(smooth3d, 1e-2).compression_ratio
    assert cr_i > cr_l
