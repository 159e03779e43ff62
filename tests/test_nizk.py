"""Tests for the Schnorr and Chaum-Pedersen NIZKs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import kernels
from repro.crypto.nizk import (
    DleqProof,
    SchnorrProof,
    prove_dleq,
    prove_dleq_batch,
    prove_dlog,
    require_valid_dleq,
    require_valid_dlog,
    verify_dleq,
    verify_dleq_batch,
    verify_dlog,
    verify_dlog_batch,
)
from repro.errors import ProofError

from tests.conftest import TIERS


class TestSchnorr:
    def test_completeness(self, group):
        secret = group.random_scalar()
        proof = prove_dlog(group, group.base(), secret, b"ctx")
        assert verify_dlog(group, group.base(), group.base_mult(secret), proof, b"ctx")

    def test_wrong_statement_rejected(self, group):
        secret = group.random_scalar()
        proof = prove_dlog(group, group.base(), secret, b"ctx")
        wrong_public = group.base_mult(group.random_scalar())
        assert not verify_dlog(group, group.base(), wrong_public, proof, b"ctx")

    def test_context_binding(self, group):
        secret = group.random_scalar()
        proof = prove_dlog(group, group.base(), secret, b"round-1")
        public = group.base_mult(secret)
        assert not verify_dlog(group, group.base(), public, proof, b"round-2")

    def test_arbitrary_base(self, group):
        base = group.base_mult(group.random_scalar())
        secret = group.random_scalar()
        proof = prove_dlog(group, base, secret, b"ctx")
        assert verify_dlog(group, base, group.scalar_mult(base, secret), proof, b"ctx")

    def test_tampered_response_rejected(self, group):
        secret = group.random_scalar()
        proof = prove_dlog(group, group.base(), secret)
        bad = SchnorrProof(commitment=proof.commitment, response=(proof.response + 1) % group.order)
        assert not verify_dlog(group, group.base(), group.base_mult(secret), bad)

    def test_garbage_commitment_rejected(self, group):
        secret = group.random_scalar()
        proof = prove_dlog(group, group.base(), secret)
        bad = SchnorrProof(commitment=b"\xff" * len(proof.commitment), response=proof.response)
        assert not verify_dlog(group, group.base(), group.base_mult(secret), bad)

    def test_require_helper(self, group):
        secret = group.random_scalar()
        proof = prove_dlog(group, group.base(), secret)
        require_valid_dlog(group, group.base(), group.base_mult(secret), proof)
        with pytest.raises(ProofError):
            require_valid_dlog(group, group.base(), group.base_mult(secret + 1), proof)

    def test_serialisation(self, group):
        proof = prove_dlog(group, group.base(), group.random_scalar())
        assert len(proof.to_bytes(group)) == len(proof.commitment) + group.scalar_size

    @given(st.integers(min_value=1, max_value=2**60))
    @settings(max_examples=20)
    def test_completeness_property(self, group, secret):
        secret %= group.order
        if secret == 0:
            secret = 1
        proof = prove_dlog(group, group.base(), secret, b"p")
        assert verify_dlog(group, group.base(), group.base_mult(secret), proof, b"p")


class TestDleq:
    def test_completeness(self, group):
        secret = group.random_scalar()
        base1 = group.base()
        base2 = group.base_mult(group.random_scalar())
        proof = prove_dleq(group, base1, base2, secret, b"ctx")
        assert verify_dleq(
            group,
            base1,
            group.scalar_mult(base1, secret),
            base2,
            group.scalar_mult(base2, secret),
            proof,
            b"ctx",
        )

    def test_different_exponents_rejected(self, group):
        secret = group.random_scalar()
        other = (secret + 1) % group.order
        base1, base2 = group.base(), group.base_mult(group.random_scalar())
        proof = prove_dleq(group, base1, base2, secret, b"ctx")
        assert not verify_dleq(
            group,
            base1,
            group.scalar_mult(base1, secret),
            base2,
            group.scalar_mult(base2, other),
            proof,
            b"ctx",
        )

    def test_context_binding(self, group):
        secret = group.random_scalar()
        base1, base2 = group.base(), group.base_mult(3)
        proof = prove_dleq(group, base1, base2, secret, b"chain-0")
        assert not verify_dleq(
            group,
            base1,
            group.scalar_mult(base1, secret),
            base2,
            group.scalar_mult(base2, secret),
            proof,
            b"chain-1",
        )

    def test_swapped_statement_rejected(self, group):
        secret = group.random_scalar()
        base1, base2 = group.base(), group.base_mult(5)
        proof = prove_dleq(group, base1, base2, secret, b"ctx")
        assert not verify_dleq(
            group,
            base2,
            group.scalar_mult(base2, secret),
            base1,
            group.scalar_mult(base1, secret),
            proof,
            b"ctx",
        )

    def test_tampered_proof_rejected(self, group):
        secret = group.random_scalar()
        base1, base2 = group.base(), group.base_mult(7)
        proof = prove_dleq(group, base1, base2, secret)
        bad = DleqProof(
            commitment1=proof.commitment1,
            commitment2=proof.commitment2,
            response=(proof.response + 1) % group.order,
        )
        assert not verify_dleq(
            group,
            base1,
            group.scalar_mult(base1, secret),
            base2,
            group.scalar_mult(base2, secret),
            bad,
        )

    def test_garbage_commitments_rejected(self, group):
        secret = group.random_scalar()
        base1, base2 = group.base(), group.base_mult(7)
        proof = prove_dleq(group, base1, base2, secret)
        bad = DleqProof(commitment1=b"\xff" * 32, commitment2=proof.commitment2, response=proof.response)
        assert not verify_dleq(
            group,
            base1,
            group.scalar_mult(base1, secret),
            base2,
            group.scalar_mult(base2, secret),
            bad,
        )

    def test_require_helper(self, group):
        secret = group.random_scalar()
        base1, base2 = group.base(), group.base_mult(11)
        proof = prove_dleq(group, base1, base2, secret)
        require_valid_dleq(
            group,
            base1,
            group.scalar_mult(base1, secret),
            base2,
            group.scalar_mult(base2, secret),
            proof,
        )
        with pytest.raises(ProofError):
            require_valid_dleq(
                group,
                base1,
                group.scalar_mult(base1, secret),
                base2,
                base2,
                proof,
            )

    def test_serialisation(self, group):
        proof = prove_dleq(group, group.base(), group.base_mult(2), group.random_scalar())
        assert len(proof.to_bytes(group)) == 2 * group.element_size + group.scalar_size

    def test_aggregate_blinding_statement(self, group):
        """The exact statement AHS servers prove: Σ outputs = bsk · Σ inputs."""
        blinding_secret = group.random_scalar()
        inputs = [group.base_mult(group.random_scalar()) for _ in range(5)]
        outputs = [group.scalar_mult(point, blinding_secret) for point in inputs]
        input_aggregate = group.sum(inputs)
        output_aggregate = group.sum(outputs)
        base_point = group.base()
        blinding_public = group.scalar_mult(base_point, blinding_secret)
        proof = prove_dleq(group, input_aggregate, base_point, blinding_secret, b"mix")
        assert verify_dleq(
            group, input_aggregate, output_aggregate, base_point, blinding_public, proof, b"mix"
        )


# -- the batch forms: the same bytes, the same predicate ----------------------------

#: Commitments no honest prover sends: not an element at all, the wrong length,
#: the identity, and (an element of the curve only) a point of order four.
ODD_COMMITMENTS = (
    b"\xff" * 32,
    b"\x01" * 31,
    b"",
    (1).to_bytes(32, "big"),
    (1).to_bytes(32, "little"),
    b"\x00" * 32,
)


@pytest.fixture(autouse=True)
def _kernel_state():
    yield
    kernels.reset_kernel_for_tests()


def _on(group_name, tier, group, ed_group):
    """Select ``tier`` and return the group a test's parameters name."""
    kernels.set_active_kernel(tier)
    return {"modp": group, "ed25519": ed_group}[group_name]


def on_groups_and_tiers(test):
    test = pytest.mark.parametrize("group_name", ["modp", "ed25519"])(test)
    return pytest.mark.parametrize("tier", TIERS)(test)


def _mutation(data, group, proof, label):
    """What to replace in ``proof``: nothing, its response (off by one), or a
    commitment (with one no honest prover sends)."""
    change = data.draw(st.sampled_from(["keep", "response", "commitment"]), label=label)
    if change == "keep":
        return {}
    if change == "response":
        return {"response": (proof.response + 1) % group.order}
    return {"commitment": data.draw(st.sampled_from(ODD_COMMITMENTS), label=label)}


class TestBatchForms:
    @on_groups_and_tiers
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_a_known_public_proves_byte_for_byte_alike(
        self, group, ed_group, group_name, tier, data
    ):
        """A prover handing in ``secret·base2`` (a mix server's blinding key)
        gets exactly the proof the one computing it gets."""
        group = _on(group_name, tier, group, ed_group)
        scalars = st.integers(1, group.order - 1)
        secret, nonce = data.draw(scalars, label="secret"), data.draw(scalars, label="nonce")
        base1 = group.base_mult(data.draw(scalars, label="base1 log"))
        base2 = group.base_mult(data.draw(scalars, label="base2 log"))
        public2 = group.scalar_mult(base2, secret)
        assert prove_dleq(
            group, base1, base2, secret, b"hop", nonce=nonce, public2=public2
        ) == prove_dleq(group, base1, base2, secret, b"hop", nonce=nonce)

    @on_groups_and_tiers
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_prove_dleq_batch_is_prove_dleq(self, group, ed_group, group_name, tier, data):
        group = _on(group_name, tier, group, ed_group)
        count = data.draw(st.integers(0, 4), label="count")
        scalars = st.integers(1, group.order - 1)
        secret = data.draw(scalars, label="secret")
        base2 = group.base_mult(data.draw(scalars, label="base2 log"))
        base1s = [group.base_mult(data.draw(scalars, label="base1 log")) for _ in range(count)]
        nonces = [data.draw(scalars, label="nonce") for _ in range(count)]
        batch = prove_dleq_batch(
            group,
            base1s,
            [group.encode(group.scalar_mult(base1, secret)) for base1 in base1s],
            base2,
            group.encode(group.scalar_mult(base2, secret)),
            secret,
            nonces,
            b"ctx",
        )
        assert batch == [
            prove_dleq(group, base1, base2, secret, b"ctx", nonce=nonce)
            for base1, nonce in zip(base1s, nonces)
        ]

    @on_groups_and_tiers
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_verify_dlog_batch_is_verify_dlog(self, group, ed_group, group_name, tier, data):
        group = _on(group_name, tier, group, ed_group)
        base = group.base()
        publics, proofs, contexts = [], [], []
        for index in range(data.draw(st.integers(0, 5), label="count")):
            secret = data.draw(st.integers(1, group.order - 1), label="secret")
            context = b"sender-%d" % index
            proof = prove_dlog(group, base, secret, context)
            changes = _mutation(data, group, proof, "proof")
            proofs.append(SchnorrProof(
                changes.get("commitment", proof.commitment), changes.get("response", proof.response)
            ))
            wrong = data.draw(st.sampled_from(["", "public", "context"]), label="wrong")
            publics.append(group.base_mult(secret + (wrong == "public")))
            contexts.append(context + (b"!" if wrong == "context" else b""))
        expected = [
            verify_dlog(group, base, public, proof, context)
            for public, proof, context in zip(publics, proofs, contexts)
        ]
        assert verify_dlog_batch(group, base, publics, proofs, contexts) == expected

    @on_groups_and_tiers
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_verify_dleq_batch_is_verify_dleq(self, group, ed_group, group_name, tier, data):
        group = _on(group_name, tier, group, ed_group)
        columns = []
        for _ in range(data.draw(st.integers(0, 4), label="count")):
            scalars = st.integers(1, group.order - 1)
            secret = data.draw(scalars, label="secret")
            base1 = group.base_mult(data.draw(scalars, label="base1 log"))
            base2 = group.base_mult(data.draw(scalars, label="base2 log"))
            proof = prove_dleq(group, base1, base2, secret, b"hop")
            first = _mutation(data, group, proof, "first")
            second = _mutation(data, group, proof, "second")
            proof = DleqProof(
                first.get("commitment", proof.commitment1),
                second.get("commitment", proof.commitment2),
                first.get("response", second.get("response", proof.response)),
            )
            wrong = data.draw(st.sampled_from(["", "public1", "public2"]), label="wrong")
            columns.append((
                base1, group.scalar_mult(base1, secret + (wrong == "public1")),
                base2, group.scalar_mult(base2, secret + (wrong == "public2")),
                proof,
            ))
        expected = [verify_dleq(group, *column, b"hop") for column in columns]
        base1s, public1s, base2s, public2s, proofs = map(list, zip(*columns)) if columns else [[]] * 5
        assert verify_dleq_batch(group, base1s, public1s, base2s, public2s, proofs, b"hop") == expected

    def test_small_order_commitment_is_judged_like_any_other(self, ed_group, tier):
        """No cofactor gap: the batch checks each equation exactly, so a
        commitment off by a point of order four fails, as it does per item."""
        group = ed_group
        order_four = bytes(32)  # y = 0: the point (sqrt(-1), 0)
        assert not group.is_in_prime_subgroup(group.decode(order_four))
        secret = 12345
        proof = prove_dlog(group, group.base(), secret, b"ctx")
        shifted = group.encode(group.add(group.decode(proof.commitment), group.decode(order_four)))
        forged = SchnorrProof(shifted, proof.response)
        public = group.base_mult(secret)
        assert verify_dlog_batch(
            group, group.base(), [public, public], [proof, forged], [b"ctx", b"ctx"]
        ) == [True, False] == [
            verify_dlog(group, group.base(), public, proof, b"ctx"),
            verify_dlog(group, group.base(), public, forged, b"ctx"),
        ]

    def test_ragged_batches_are_refused(self, group):
        proof = prove_dlog(group, group.base(), 5, b"ctx")
        with pytest.raises(ProofError):
            verify_dlog_batch(group, group.base(), [group.base_mult(5)] * 2, [proof], [b"ctx"] * 2)
        dleq = prove_dleq(group, group.base(), group.base_mult(2), 5)
        with pytest.raises(ProofError):
            verify_dleq_batch(group, [group.base()] * 2, [group.base_mult(5)] * 2,
                              [group.base_mult(2)] * 2, [group.base_mult(10)] * 2, [dleq])
        with pytest.raises(ProofError):
            prove_dleq_batch(group, [group.base()], [b""] * 2, group.base(), b"", 5, [7])
