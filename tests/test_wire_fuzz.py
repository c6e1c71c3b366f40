"""The wire boundary under damage: what the receiver does with frame
buffers that were cut, bit-flipped or spliced on the way.

Frames cross the channel only as ``EncodedFrame.to_bytes()``; the
receiver parses them with ``from_bytes`` inside its guarded decode.
Whatever the damage, parsing yields a frame or a ``ValueError``, and
``decode_pair_safe`` yields a pair or ``None`` -- never an exception.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.dataset import load_video
from repro.capture.rig import default_rig
from repro.codec.frame import EncodedFrame, FrameType
from repro.core.config import SessionConfig
from repro.core.receiver import DecodedPair, LiVoReceiver
from repro.core.sender import LiVoSender


@pytest.fixture(scope="module")
def wire():
    """An INTRA pair and the INTER pair after it, as serialized frames."""
    config = SessionConfig(
        num_cameras=2, camera_width=32, camera_height=24, scene_sample_budget=2000,
        gop_size=8,
    )
    rig = default_rig(num_cameras=2, width=32, height=24)
    _, scene = load_video("office1", sample_budget=2000)
    sender = LiVoSender(rig.cameras, config)
    results = [sender.process(rig.capture(scene, i), 8e6, 0.1) for i in range(2)]
    assert [r.color_frame.frame_type for r in results] == [FrameType.INTRA, FrameType.INTER]
    pairs = []
    for result in results:
        for frame in (result.color_frame, result.depth_frame):
            assert EncodedFrame.from_bytes(frame.to_bytes()) == frame  # round trip
        pairs.append((result.color_frame.to_bytes(), result.depth_frame.to_bytes()))
    return rig.cameras, config, pairs


def _damage(data, buffer: bytes, donors: list[bytes]) -> bytes:
    """Truncate, flip one byte of, or splice a donor's bytes into ``buffer``."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return buffer[: data.draw(st.integers(0, len(buffer) - 1))]
    if kind == "flip":
        at = data.draw(st.integers(0, len(buffer) - 1))
        mask = data.draw(st.integers(1, 255))
        return buffer[:at] + bytes([buffer[at] ^ mask]) + buffer[at + 1 :]
    donor = data.draw(st.sampled_from(donors))
    start = data.draw(st.integers(0, len(buffer)))
    end = data.draw(st.integers(start, len(buffer)))
    cut = data.draw(st.integers(0, len(donor)))
    return buffer[:start] + donor[cut : data.draw(st.integers(cut, len(donor)))] + buffer[end:]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_damaged_pair_parses_or_raises_and_never_crashes_the_receiver(wire, data):
    cameras, config, pairs = wire
    which = data.draw(st.sampled_from([0, 1]))
    buffers = list(pairs[which])
    donors = [buffer for pair in pairs for buffer in pair]
    for stream in data.draw(st.sampled_from([(0,), (1,), (0, 1)])):
        buffers[stream] = _damage(data, buffers[stream], donors)
        try:
            parsed = EncodedFrame.from_bytes(buffers[stream])
        except ValueError:
            pass
        else:
            assert isinstance(parsed, EncodedFrame)
    receiver = LiVoReceiver(cameras, config)
    if which == 1:
        assert receiver.decode_pair_safe(*pairs[0]) is not None  # the INTER's reference
    result = receiver.decode_pair_safe(*buffers)
    assert result is None or isinstance(result, DecodedPair)
