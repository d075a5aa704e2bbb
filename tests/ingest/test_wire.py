"""Wire-format tests: round-trip property and the robustness contract.

The property test drives every serialisable event term through the full
client-to-gateway path — serialise, frame, unframe, parse — and demands
the identical term back; the unit tests pin the contract that *any*
malformed input is a counted :class:`~repro.errors.FrameError`, never a
crash.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FrameError, IngestError, TermError, WebError
from repro.ingest import wire
from repro.ingest.admission import IngestGateway
from repro.terms import Data, canonical_str, parse_data
from repro.web.node import Simulation

LABELS = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)

SCALARS = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.booleans(),
    st.text(alphabet=string.printable, max_size=12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)

ATTRS = st.dictionaries(LABELS, st.text(alphabet=string.printable, max_size=8),
                        max_size=3)


def event_terms(max_depth: int = 3) -> "st.SearchStrategy[Data]":
    return st.recursive(
        st.builds(lambda lab, attrs: Data(lab, (), attrs=tuple(attrs.items())),
                  LABELS, ATTRS),
        lambda children: st.builds(
            lambda lab, kids, ordered, attrs: Data(
                lab, tuple(kids), ordered, tuple(attrs.items())),
            LABELS,
            st.lists(st.one_of(SCALARS, children), max_size=4),
            st.booleans(),
            ATTRS,
        ),
        max_leaves=10,
    )


SENDERS = st.text(alphabet=string.ascii_lowercase + ":/.-", max_size=20)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(term=event_terms(), sender=SENDERS,
           sent_at=st.floats(min_value=0.0, max_value=1e6),
           message_id=st.integers(min_value=1, max_value=2**31))
    def test_serialize_frame_unframe_parse_round_trips(
            self, term, sender, sent_at, message_id):
        data = wire.encode_event(term, sender=sender, sent_at=sent_at,
                                 message_id=message_id)
        payloads = wire.unframe(data)
        assert len(payloads) == 1
        envelope = wire.decode_payload(payloads[0])
        assert canonical_str(envelope.body) == canonical_str(term)
        assert envelope.sender == sender
        assert envelope.sent_at == pytest.approx(sent_at)
        assert envelope.message_id == message_id

    @settings(max_examples=50, deadline=None)
    @given(terms=st.lists(event_terms(), min_size=1, max_size=5),
           chunk=st.integers(min_value=1, max_value=7))
    def test_streamed_chunks_reassemble_every_frame(self, terms, chunk):
        stream = b"".join(
            wire.encode_event(term, sender="s", sent_at=0.0, message_id=i + 1)
            for i, term in enumerate(terms))
        decoder = wire.FrameDecoder()
        payloads = []
        for start in range(0, len(stream), chunk):
            payloads.extend(decoder.feed(stream[start:start + chunk]))
        decoder.finish()
        assert [canonical_str(wire.decode_payload(p).body)
                for p in payloads] == [canonical_str(t) for t in terms]


class TestMalformedFrames:
    def gateway(self):
        sim = Simulation()
        return IngestGateway(sim.node("http://sink.example"))

    def test_truncated_prefix_rejected_at_eof(self):
        decoder = wire.FrameDecoder()
        assert decoder.feed(b"\x00\x00") == []
        with pytest.raises(FrameError):
            decoder.finish()

    def test_truncated_payload_rejected_at_eof(self):
        decoder = wire.FrameDecoder()
        assert decoder.feed(b"\x00\x00\x00\x10only-part") == []
        with pytest.raises(FrameError):
            decoder.finish()

    def test_oversized_declared_length_rejected_before_buffering(self):
        decoder = wire.FrameDecoder(max_frame=64)
        with pytest.raises(FrameError):
            decoder.feed((1 << 16).to_bytes(4, "big"))

    def test_frames_before_a_bad_prefix_survive(self):
        good = wire.encode_event(Data("ok", ()), sender="s", sent_at=0.0,
                                 message_id=1)
        decoder = wire.FrameDecoder(max_frame=1024)
        payloads = decoder.feed(good + (1 << 20).to_bytes(4, "big"))
        assert len(payloads) == 1  # the good frame is not lost
        with pytest.raises(FrameError):
            decoder.feed(b"")  # the framing error surfaces on the next call

    def test_oversized_payload_rejected_at_encode(self):
        with pytest.raises(FrameError):
            wire.frame(b"x" * 100, max_frame=64)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_refused_at_encode(self, value):
        # Written as text it would read back as a label, not a float.
        with pytest.raises(TermError, match="non-finite"):
            wire.encode_event(Data("reading", (Data("v", (value,)),)),
                              sender="s", message_id=1)

    def test_non_utf8_payload_rejected(self):
        with pytest.raises(FrameError):
            wire.decode_payload(b"\xff\xfe\x00")

    def test_non_term_payload_rejected(self):
        with pytest.raises(FrameError):
            wire.decode_payload(b"this is not a term {{{")

    def test_non_envelope_term_rejected(self):
        with pytest.raises(FrameError):
            wire.decode_payload(b'order{ seq[1] }')

    def test_envelope_without_body_rejected(self):
        with pytest.raises(FrameError):
            wire.decode_payload(b"envelope{ header{ } }")

    def test_frame_error_is_a_web_error(self):
        # The tier's errors slot into the existing hierarchy, so callers
        # catching WebError keep working.
        assert issubclass(FrameError, IngestError)
        assert issubclass(IngestError, WebError)

    def test_gateway_counts_malformed_payloads(self):
        gateway = self.gateway()
        for bad in (b"\xff\xfe", b"not a term", b"scalar[1]"):
            with pytest.raises(FrameError):
                gateway.offer_payload(bad)
        assert gateway.stats.malformed == 3
        # A well-formed offer still works afterwards: no crash, no state rot.
        ok = wire.encode_event(Data("order", (Data("seq", (1,)),)),
                               sender="s", sent_at=0.0, message_id=1)
        assert gateway.offer_payload(wire.unframe(ok)[0]) is True
        assert gateway.stats.admitted == 1

    def test_round_trip_matches_parser_surface(self):
        # The wire text is the ordinary term surface: a hand-written
        # envelope parses the same as an encoded one.
        text = ('envelope{ header{ sender["s"], sent-at[1.5], '
                'message-id[7] }, body{ order{ seq[42] } } }')
        envelope = wire.decode_payload(text.encode("utf-8"))
        assert canonical_str(envelope.body) == canonical_str(
            parse_data("order{ seq[42] }"))
        assert envelope.message_id == 7
