"""Golden-key regression tests: the cache identity layer is byte-stable.

Every artifact on disk is addressed by :func:`cell_key`, every
checkpoint journal by :func:`spec_fingerprint`, and every pipeline
stage's inputs by :func:`keys_digest`.  A silent change to any of these
— a reordered field, a new default leaking into the identity dict, a
canonical-JSON tweak — would orphan every cache and checkpoint users
have on disk while looking like a no-op in ordinary tests (everything
still *works*, it just recomputes).  So the current values are pinned
here as literal hex fixtures: if one of these tests fails, either
revert the change, or bump the cache version and say so loudly in the
changelog — never "fix the test" quietly.
"""

from repro.experiments.artifacts import keys_digest
from repro.experiments.cache import cell_key
from repro.experiments.checkpoint import spec_fingerprint
from repro.experiments.spec import ExperimentSpec

#: a representative flat cell identity, pinned at cache version 2
GOLDEN_FLAT_KEY = (
    "b8c820dbf579f8adcaf619ac4788f24109ad37ed47adb6d0b850155b0ab4bc73"
)
#: the same machinery with upstream digests folded in
GOLDEN_INPUTS_KEY = (
    "4fca4b69c9081c40141c67ed60ffba2e565e3ea0f0e804ecf2a375e5812a375f"
)
GOLDEN_FLAT_FINGERPRINT = (
    "1f5d6857e29509262393b281c0993ec0cab13f839d86bacc0ef53c3e9faee53a"
)
GOLDEN_INPUTS_FINGERPRINT = (
    "cfff08a2ff0c5133e30fe800f220fbf65440aaf34ef8b96388a789cb5b82cc36"
)
GOLDEN_KEYS_DIGEST = (
    "ae64a715c0313bb2039463bfdb2cf0ff3c30f6085a021e2423b1a64585f04670"
)

_INPUTS = {"workload": "a" * 64}


def _golden_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="golden",
        scenario="chaos",
        params={"n_jobs": 4},
        axes={"flaps_per_hour": (0.0, 10.0)},
        seed=11,
        seed_mode="shared",
    )


class TestGoldenCellKeys:
    def test_flat_cell_key_is_pinned(self):
        key = cell_key("chaos", {"n_jobs": 4, "flaps_per_hour": 10.0}, 11)
        assert key == GOLDEN_FLAT_KEY

    def test_param_order_does_not_move_the_key(self):
        key = cell_key("chaos", {"flaps_per_hour": 10.0, "n_jobs": 4}, 11)
        assert key == GOLDEN_FLAT_KEY

    def test_inputs_cell_key_is_pinned(self):
        key = cell_key(
            "managed_from_workload", {"n_tasks": 2}, 3, inputs=_INPUTS
        )
        assert key == GOLDEN_INPUTS_KEY

    def test_empty_inputs_mean_flat(self):
        # inputs={} must hash exactly like inputs=None: a flat spec run
        # through the pipeline plumbing keeps its historical artifacts
        flat = cell_key("chaos", {"n_jobs": 4, "flaps_per_hour": 10.0}, 11)
        empty = cell_key(
            "chaos", {"n_jobs": 4, "flaps_per_hour": 10.0}, 11, inputs={}
        )
        assert flat == empty == GOLDEN_FLAT_KEY


class TestGoldenFingerprints:
    def test_flat_fingerprint_is_pinned(self):
        assert spec_fingerprint(_golden_spec()) == GOLDEN_FLAT_FINGERPRINT

    def test_inputs_fingerprint_is_pinned(self):
        fp = spec_fingerprint(_golden_spec(), inputs=_INPUTS)
        assert fp == GOLDEN_INPUTS_FINGERPRINT

    def test_empty_inputs_mean_flat(self):
        fp = spec_fingerprint(_golden_spec(), inputs={})
        assert fp == GOLDEN_FLAT_FINGERPRINT

    def test_inputs_change_the_fingerprint(self):
        fp = spec_fingerprint(_golden_spec(), inputs={"workload": "b" * 64})
        assert fp not in (GOLDEN_FLAT_FINGERPRINT, GOLDEN_INPUTS_FINGERPRINT)


class TestGoldenDigests:
    def test_keys_digest_is_pinned(self):
        digest = keys_digest([GOLDEN_FLAT_KEY, GOLDEN_INPUTS_KEY])
        assert digest == GOLDEN_KEYS_DIGEST

    def test_digest_is_order_sensitive(self):
        # the digest identifies an *ordered* grid; a reordered upstream
        # is different data to a consumer
        digest = keys_digest([GOLDEN_INPUTS_KEY, GOLDEN_FLAT_KEY])
        assert digest != GOLDEN_KEYS_DIGEST
