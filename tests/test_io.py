"""Tests for the on-disk round trips: observations and meta arrays through
:class:`repro.store.ObservationStore` (the one observation format), and
output maps through ``save_map``/``load_map``."""

import json

import numpy as np
import pytest

from repro.core import Data, fake_hexagon_focalplane
from repro.io import load_map, save_map
from repro.ops import DefaultNoiseModel, SimNoise, SimSatellite, create_fake_sky
from repro.store import ObservationStore, StoreIntegrityError
from repro.store.manifest import MANIFEST_NAME
from repro.workflows.satellite import same_bits

pytestmark = pytest.mark.usefixtures("leak_sentinel")


@pytest.fixture
def data():
    fp = fake_hexagon_focalplane(n_pixels=2, sample_rate=10.0)
    d = Data()
    SimSatellite(fp, n_observations=2, n_samples=500).apply(d)
    DefaultNoiseModel().apply(d)
    SimNoise().apply(d)
    d["sky_map"] = create_fake_sky(8, seed=1)
    return d


def _save(data, root):
    """Spill every observation and the sky map; 500 samples make four
    128-sample chunks per array, the last one partial."""
    store = ObservationStore.create(root, chunk_samples=128)
    for ob in data.obs:
        store.spill_observation(ob)
    store.save_meta("sky_map", data["sky_map"])
    return store.root


def _load(root):
    store = ObservationStore.open(root)
    back = Data()
    for iobs in range(store.n_observations):
        back.obs.append(store.load_observation(iobs))
    for key in store.meta_keys():
        back[key] = store.load_meta(key)
    return back


def _flip_payload_byte(path, at=-2):
    blob = bytearray(path.read_bytes())
    blob[at] ^= 0x10  # payload only: the header frame stays sound
    path.write_bytes(bytes(blob))


class TestObservationRoundtrip:
    def test_roundtrip_arrays(self, data, tmp_path):
        ob = data.obs[0]
        back = _load(_save(data, tmp_path / "vol")).obs[0]
        assert (back.name, back.uid, back.n_samples) == (ob.name, ob.uid, ob.n_samples)
        for kind in ("shared", "detdata"):
            got, want = getattr(back, kind), getattr(ob, kind)
            assert sorted(got) == sorted(want)
            for key in want:
                assert same_bits(got[key], want[key]), f"{kind}/{key}"

    def test_roundtrip_intervals(self, data, tmp_path):
        ob = data.obs[0]
        back = _load(_save(data, tmp_path / "vol")).obs[0]
        assert back.intervals["scan"] == ob.intervals["scan"]
        for got, want in zip(
            back.intervals["scan"].as_arrays(), ob.intervals["scan"].as_arrays()
        ):
            assert same_bits(got, want)

    def test_roundtrip_focalplane(self, data, tmp_path):
        ob = data.obs[0]
        back = _load(_save(data, tmp_path / "vol")).obs[0]
        assert back.detectors == ob.detectors
        assert same_bits(back.focalplane.quat_array(), ob.focalplane.quat_array())
        np.testing.assert_array_equal(
            back.focalplane.detector_weights(), ob.focalplane.detector_weights()
        )

    def test_bad_format_rejected(self, data, tmp_path):
        """A manifest from another format version is refused, and so is
        its retained previous generation: no fallback reads either."""
        obs_dir = _save(data, tmp_path / "vol") / "obs_0000"
        raw = json.loads((obs_dir / MANIFEST_NAME).read_text())
        raw["format"] = 99
        for name in (MANIFEST_NAME, f"{MANIFEST_NAME}.prev"):
            (obs_dir / name).write_text(json.dumps(raw))
        with pytest.raises(StoreIntegrityError, match="format version 99"):
            ObservationStore.open(obs_dir.parent)

    def test_version_error_names_supported_versions(self, data, tmp_path):
        obs_dir = _save(data, tmp_path / "vol") / "obs_0001"
        raw = json.loads((obs_dir / MANIFEST_NAME).read_text())
        raw["format"] = 99
        (obs_dir / MANIFEST_NAME).write_text(json.dumps(raw))
        with pytest.raises(
            StoreIntegrityError,
            match=r"'obs_0001' has format version 99; this build reads version 1",
        ):
            ObservationStore.open(obs_dir.parent)

    def test_corrupt_array_fails_naming_the_key(self, data, tmp_path):
        """A flipped bit in one stored array is caught by its chunk's CRC."""
        root = _save(data, tmp_path / "vol")
        _flip_payload_byte(root / "obs_0000" / "chunks" / "detdata__signal__w0001.chunk")
        with pytest.raises(
            StoreIntegrityError,
            match=r"chunk 'detdata__signal__w0001\.chunk' payload CRC mismatch",
        ):
            ObservationStore.open(root)


class TestDataRoundtrip:
    def test_roundtrip(self, data, tmp_path):
        back = _load(_save(data, tmp_path / "vol"))
        assert len(back.obs) == len(data.obs)
        assert same_bits(back["sky_map"], data["sky_map"])
        assert same_bits(back.obs[1].detdata["signal"], data.obs[1].detdata["signal"])

    def test_index_written(self, data, tmp_path):
        root = _save(data, tmp_path / "vol")
        index = json.loads((root / "store.json").read_text())
        assert index["observations"] == ["obs_0000", "obs_0001"]
        assert index["meta"] == {"sky_map": "meta__sky_map.chunk"}

    def test_index_version_error_names_versions(self, data, tmp_path):
        root = _save(data, tmp_path / "vol")
        index = json.loads((root / "store.json").read_text())
        index["format"] = 7
        (root / "store.json").write_text(json.dumps(index))
        with pytest.raises(
            StoreIntegrityError,
            match=r"format version 7; this build reads version 1",
        ):
            ObservationStore.open(root)

    def test_corrupt_meta_file_fails_naming_the_key(self, data, tmp_path):
        root = _save(data, tmp_path / "vol")
        store = ObservationStore.open(root)
        _flip_payload_byte(root / "meta__sky_map.chunk")
        with pytest.raises(
            StoreIntegrityError,
            match=r"chunk 'meta__sky_map\.chunk' payload CRC mismatch",
        ):
            store.load_meta("sky_map")

    def test_processing_continues_after_reload(self, data, tmp_path):
        """Loaded data flows through the pipeline identically."""
        from repro.ops import PixelsHealpix, PointingDetector

        back = _load(_save(data, tmp_path / "vol"))
        for d in (data, back):
            PointingDetector().apply(d)
            PixelsHealpix(nside=8, nest=True).apply(d)
        for ob, ob_back in zip(data.obs, back.obs):
            assert same_bits(ob_back.detdata["pixels"], ob.detdata["pixels"])


class TestMapRoundtrip:
    def test_roundtrip(self, tmp_path):
        sky = create_fake_sky(16, seed=2)
        path = save_map(sky, tmp_path / "sky", nside=16, nest=True)
        m, nside, nest = load_map(path)
        np.testing.assert_array_equal(m, sky)
        assert nside == 16
        assert nest is True

    def test_ring_flag(self, tmp_path):
        path = save_map(np.zeros((12, 3)), tmp_path / "m", nside=1, nest=False)
        _, _, nest = load_map(path)
        assert nest is False
