"""Golden regression values.

These tests freeze exact seeded outputs of the pipeline.  They exist
to catch *unintended* behaviour changes — a refactor that silently
alters the generator's draw order, a metrics tweak that shifts phi in
the fourth decimal.  If a change is intentional, update the constants
and say so in the commit.
"""

import hashlib

import numpy as np
import pytest

from repro.core.evaluation.comparison import score_sample
from repro.core.evaluation.targets import (
    INTERARRIVAL_TARGET,
    PACKET_SIZE_TARGET,
)
from repro.core.sampling.factory import make_sampler
from repro.trace.trace import TRACE_COLUMNS
from repro.workload.diurnal import nsfnet_day_trace
from repro.workload.generator import (
    TraceGenerator,
    fixwest_hour_trace,
    nsfnet_hour_trace,
)


@pytest.fixture(scope="module")
def golden_trace():
    return nsfnet_hour_trace(seed=424, duration_s=90)


class TestGeneratorGolden:
    def test_packet_count(self, golden_trace):
        assert len(golden_trace) == 40956

    def test_total_bytes(self, golden_trace):
        assert golden_trace.total_bytes == 10470267

    def test_first_packets(self, golden_trace):
        assert golden_trace.timestamps_us[:4].tolist() == [6000, 10000, 15200, 17200]
        assert golden_trace.sizes[:4].tolist() == [40, 56, 126, 40]

    def test_checksum_columns(self, golden_trace):
        # Cheap whole-column fingerprints.
        assert int(golden_trace.timestamps_us.sum()) == 1818517375600
        assert int(golden_trace.src_nets.sum()) == 377881
        assert int(golden_trace.dst_ports.sum()) == 2221013


#: Per-column SHA-256 of seeded generator outputs: any change to the
#: generator's draw order, or to what it does with a draw, moves one.
#: ``nsfnet_day_trace`` at rate scale 0.002 runs at the 1 pps floor.
GENERATOR_DIGESTS = {
    "nsfnet-hour-1993": (
        1531163,
        {
            "timestamps_us": "97856dc7f5e1d93edcaaf1c00b19ebeedcab4ea8b09d0513c63b026af3d6b6a0",
            "sizes": "6bf042a9b31bbaf120e64638c299d965f6f8efa7344f4555c0bd64c8850c6388",
            "protocols": "656da21c20adac32134deea150f7c6bfdbcfa622f625de211db149d2f4f1083d",
            "src_nets": "7c377de13a480520f888b4d298b1c4ece5ff012757b786279005f5cccde93cf3",
            "dst_nets": "e1f19ff2c811ac625416077d4b960c68f7b22742d46d7173418b5ce6cdafd13b",
            "src_ports": "a275f59e45c9398f30e69cf3b1ffb3190624c4e3dfc187cc56e90b639bde7985",
            "dst_ports": "18d09cba26144dc8354e64376449d007f434de49ce8ea390108d7a16de161c16",
        },
    ),
    "nsfnet-7-120s": (
        47708,
        {
            "timestamps_us": "377c1e8cc3bd04dd79ab0d2199b0cbb2c28cfa717d5f2a18ce769a2718d4a5fc",
            "sizes": "32b87d1d1a17d7047523fe93762ec032487172882d2296fec972616677269ffa",
            "protocols": "d8c289e11d584db28623b40978f496627cae01ed28949cb2a4b1c3dfdd59e42e",
            "src_nets": "7cbda9e4e0aa3421ff64369e5924fa079657bf05d84c1817b79f7d14abcf6c21",
            "dst_nets": "72e4aa827abac4652f60c3857556b39fcd14ded549ddb762ba515464bf0718fd",
            "src_ports": "15d229de77bbb477444915aba896ab10ede9e3fe50ae7c50a9cbfdff0ed0ecfd",
            "dst_ports": "01bceca0232a43d6af413bc1dd88412305720aca0c574276b5eb736243543568",
        },
    ),
    "fixwest-1992-300s": (
        183804,
        {
            "timestamps_us": "f989c2c7d13c4481185f6677f74ffe3b6e219c359904cf1fe7cc505fa963c778",
            "sizes": "7f37970e53b6fa74a609552046903a69857293c607f1f2c02c95d4b388ce9a75",
            "protocols": "bbd5ead7a69b520b3fca4c16db8869e2e6babf2dcd4af81fab710bd896afaa10",
            "src_nets": "a7e8c6b2dffa071edeefee8a430de0b6aae7580cb1933564f5eeba54a6bb753a",
            "dst_nets": "fbff42b39a0e868a56cb81374be6cdded09f5296744ca69dfadffee2f6d52642",
            "src_ports": "131290d186befc40ed26ae16b7007248188087089910725566fff325700f4694",
            "dst_ports": "10b7bf811ee0f4dd2dc0ba3fcf41688c9dfdf9a6900058591fae1922c3b7d7f1",
        },
    ),
    "flat-mix-5-200s": (
        82288,
        {
            "timestamps_us": "1aa645debae6215224bc7d6badd42b94a2ad83d0f175198170619d3636077b55",
            "sizes": "7311eb1c0889b8a5a2a73b2ca0d8e31564d874f3c94c8f8e0745e38e4ba75a95",
            "protocols": "af8b48b2a04cca22d8287457afffc64b0dab1857057b7c0b2e8913bcdfcfe981",
            "src_nets": "95e57450848b40257be9749f33ce2e7cfd53510ea77745d2f1c8ecbd75919532",
            "dst_nets": "14f2bccf12cbed1088a65af97327b896f39992be4609dbd908ba41bce499a844",
            "src_ports": "4af3f4094cdf3dfa95dbcb54154d6ac6bb6ac088de8644f44a773f02e82724ef",
            "dst_ports": "8cd375003833c35734b6be90b20559d845ac6d15847dc6e4da6d2ceb57386f65",
        },
    ),
    "day-6-1800s-rate-floor": (
        1236,
        {
            "timestamps_us": "43159d037be69a2cf8e30a7211e4520b4a0abc9aca686f74e6ab61edd88342b0",
            "sizes": "34b6f888cff980e82a8baba6fa869ff7d9ecefe6206bede66add96792a4ff3d5",
            "protocols": "e2ba0dfc9b8212c5a2db5d1dd6dd7af94ba0646c3f0bd5fcede144d448a51229",
            "src_nets": "1244f95fdf027e1ca607417cdc447eee2ee4f4206f36549143c68e921a8b6c86",
            "dst_nets": "a6a4f80255decf31047972d703b9230fe74aa9364c344d3c394888827222cb53",
            "src_ports": "e1febe6129ae48aa4e8f299261d94b8726c7984267614f821d70fe9c3aed22b5",
            "dst_ports": "b00586e4bdbc5e5cd392d1fc49e74db436a6a3320f94368b8945ec1fd472a9a8",
        },
    ),
}

_DIGEST_TRACES = {
    "nsfnet-hour-1993": lambda: nsfnet_hour_trace(1993, 3600),
    "nsfnet-7-120s": lambda: nsfnet_hour_trace(7, 120),
    "fixwest-1992-300s": lambda: fixwest_hour_trace(1992, 300),
    "flat-mix-5-200s": lambda: TraceGenerator(
        seed=5, duration_s=200, mix_sigma=0.0
    ).generate(),
    "day-6-1800s-rate-floor": lambda: nsfnet_day_trace(
        seed=6, duration_s=1800, rate_scale=0.002
    )[0],
}


@pytest.mark.parametrize("case", sorted(GENERATOR_DIGESTS))
def test_generator_column_digests(case):
    trace = _DIGEST_TRACES[case]()
    packets, digests = GENERATOR_DIGESTS[case]
    assert len(trace) == packets
    got = {
        name: hashlib.sha256(getattr(trace, name).tobytes()).hexdigest()
        for name, _ in TRACE_COLUMNS
    }
    assert got == digests

class TestScoringGolden:
    def test_systematic_phi_values(self, golden_trace):
        sampler = make_sampler("systematic", 50, phase=7)
        result = sampler.sample(golden_trace)
        size = score_sample(golden_trace, result, PACKET_SIZE_TARGET)
        iat = score_sample(golden_trace, result, INTERARRIVAL_TARGET)
        assert size.phi == pytest.approx(0.02140901, abs=1e-7)
        assert iat.phi == pytest.approx(0.03763640, abs=1e-7)

    def test_stratified_phi_value(self, golden_trace):
        sampler = make_sampler("stratified", 64)
        result = sampler.sample(golden_trace, rng=np.random.default_rng(77))
        size = score_sample(golden_trace, result, PACKET_SIZE_TARGET)
        assert size.phi == pytest.approx(0.03510055, abs=1e-7)

    def test_timer_phi_value(self, golden_trace):
        sampler = make_sampler("timer-systematic", 50, trace=golden_trace)
        result = sampler.sample(golden_trace)
        iat = score_sample(golden_trace, result, INTERARRIVAL_TARGET)
        assert iat.phi == pytest.approx(0.74517530, abs=1e-6)
