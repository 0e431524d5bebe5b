"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reference import ReferenceFrameAllocator
from repro.hw.dram import PAGE_SIZE, DramDevice
from repro.mmu.frame_alloc import FrameAllocator, ReusePolicy
from repro.mmu.pagemap import PagemapEntry, decode_entry, encode_entry
from repro.utils.bitfield import bytes_to_words, words_to_bytes
from repro.utils.hexdump import hexdump_paper_rows, parse_paper_row
from repro.utils.strings import extract_strings
from repro.vitis.image import Image
from repro.vitis.xmodel import XModel
from repro.vitis.zoo import MODEL_NAMES, build_model


# -- pagemap encoding ---------------------------------------------------------

pagemap_entries = st.builds(
    PagemapEntry,
    present=st.booleans(),
    pfn=st.integers(min_value=0, max_value=(1 << 55) - 1),
    swapped=st.just(False),
    file_page=st.booleans(),
    soft_dirty=st.booleans(),
    exclusive=st.booleans(),
)


@given(pagemap_entries)
def test_pagemap_roundtrip(entry):
    decoded = decode_entry(encode_entry(entry))
    if entry.present:
        assert decoded == entry
    else:
        # PFN is hidden for absent pages; all flags survive.
        assert decoded.pfn == 0
        assert decoded.present == entry.present
        assert decoded.file_page == entry.file_page


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_pagemap_decode_never_crashes_on_arbitrary_u64(value):
    entry = decode_entry(value)
    assert 0 <= entry.pfn < (1 << 55)


# -- hexdump ------------------------------------------------------------------

@given(st.binary(min_size=0, max_size=256))
def test_hexdump_row_count(data):
    rows = hexdump_paper_rows(data)
    assert len(rows) == (len(data) + 15) // 16


@given(st.binary(min_size=16, max_size=160).filter(lambda b: len(b) % 16 == 0))
def test_hexdump_roundtrip_full_rows(data):
    rebuilt = b"".join(parse_paper_row(row) for row in hexdump_paper_rows(data))
    assert rebuilt == data


# -- word conversion -----------------------------------------------------------

@given(st.binary(min_size=0, max_size=64).filter(lambda b: len(b) % 4 == 0))
def test_words_roundtrip(data):
    assert words_to_bytes(bytes_to_words(data)) == data


# -- strings extraction ----------------------------------------------------------

@given(st.binary(max_size=512), st.integers(min_value=1, max_value=8))
def test_extracted_strings_are_printable_and_in_bounds(data, minimum):
    for hit in extract_strings(data, minimum):
        assert len(hit.text) >= minimum
        assert all(0x20 <= ord(c) <= 0x7E for c in hit.text)
        segment = data[hit.offset : hit.offset + len(hit.text)]
        assert segment.decode("ascii") == hit.text


@given(st.text(alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
               min_size=6, max_size=20))
def test_planted_string_is_always_found(text):
    data = b"\x00\x01" + text.encode() + b"\xff\x02"
    assert any(hit.text == text for hit in extract_strings(data, 4))


# -- DRAM ----------------------------------------------------------------------

@given(
    offset=st.integers(min_value=0, max_value=8 * PAGE_SIZE - 64),
    payload=st.binary(min_size=1, max_size=64),
)
def test_dram_write_read_roundtrip(offset, payload):
    dram = DramDevice(capacity=8 * PAGE_SIZE)
    dram.write(offset, payload)
    assert dram.read(offset, len(payload)) == payload


@given(
    first=st.binary(min_size=1, max_size=32),
    second=st.binary(min_size=1, max_size=32),
)
def test_dram_disjoint_writes_do_not_interfere(first, second):
    dram = DramDevice(capacity=4 * PAGE_SIZE)
    dram.write(0, first)
    dram.write(PAGE_SIZE, second)
    assert dram.read(0, len(first)) == first
    assert dram.read(PAGE_SIZE, len(second)) == second


# -- frame allocator -------------------------------------------------------------

@st.composite
def alloc_free_scripts(draw):
    """A random interleaving of allocate/free operations."""
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["alloc", "free"]),
                      st.integers(min_value=1, max_value=8)),
            min_size=1, max_size=30,
        )
    )


@given(
    script=alloc_free_scripts(),
    policy=st.sampled_from(list(ReusePolicy)),
)
@settings(max_examples=60)
def test_frame_allocator_never_double_allocates(script, policy):
    allocator = FrameAllocator(total_frames=128, policy=policy, seed=7)
    held: list[list[int]] = []
    outstanding: set[int] = set()
    for operation, count in script:
        if operation == "alloc":
            if count > allocator.free_frames():
                continue
            frames = allocator.allocate(count, owner=1)
            assert not (set(frames) & outstanding), "frame handed out twice"
            assert len(set(frames)) == len(frames)
            outstanding |= set(frames)
            held.append(frames)
        elif held:
            frames = held.pop()
            allocator.free(frames)
            outstanding -= set(frames)
    assert allocator.allocated_frames() == len(outstanding)


ZCU102_FRAMES = (1 << 20, 0x60000)
"""A ZCU102's frame count and the kernel-reserved base of its user range."""


@given(
    script=alloc_free_scripts(),
    policy=st.sampled_from(list(ReusePolicy)),
    seed=st.integers(min_value=0, max_value=2**16),
    geometry=st.sampled_from([(128, 0), (128, 100), ZCU102_FRAMES]),
    reference=st.sampled_from([FrameAllocator, ReferenceFrameAllocator]),
)
@settings(max_examples=80)
def test_frame_allocator_batch_equals_single_frame_calls(
    script, policy, seed, geometry, reference
):
    """allocate(n) hands out, and leaves behind, what n allocate(1) calls
    do, whether those run on the sparse pool or on the materialized
    reference pool."""
    total, base = geometry
    batched = FrameAllocator(total, base, policy=policy, seed=seed)
    single = reference(total, base, policy=policy, seed=seed)
    held: list[list[int]] = []
    handed_out: set[int] = set()
    for step, (operation, count) in enumerate(script):
        if operation == "alloc":
            if count > batched.free_frames():
                continue
            frames = batched.allocate(count, owner=step)
            assert frames == [single.allocate(1, owner=step)[0] for _ in range(count)]
            held.append(frames)
            handed_out.update(frames)
        elif held:
            frames = held.pop()
            batched.free(frames)
            single.free(frames)
        assert batched.free_frames() == single.free_frames()
    probes = (
        range(total)
        if total <= 128
        else sorted(handed_out | {base - 1, base, total - 1, total})
    )
    for frame in probes:
        assert batched.owner_of(frame) == single.owner_of(frame)
        assert batched.last_owner_of(frame) == single.last_owner_of(frame)
        assert batched.is_free(frame) == single.is_free(frame)
    # Draining both frame by frame exposes pool order, watermark and RNG
    # (all of a small range, the head of a ZCU102's).
    remaining = batched.free_frames()
    assert remaining == single.free_frames()
    drain = min(remaining, 512)
    drained = [batched.allocate(1)[0] for _ in range(drain)]
    assert drained == [single.allocate(1)[0] for _ in range(drain)]


@given(policy=st.sampled_from(list(ReusePolicy)))
def test_frame_allocator_conservation(policy):
    allocator = FrameAllocator(total_frames=64, policy=policy)
    frames = allocator.allocate(10)
    assert allocator.free_frames() + allocator.allocated_frames() == 64
    allocator.free(frames)
    assert allocator.free_frames() == 64


# -- images ------------------------------------------------------------------------

@given(
    width=st.integers(min_value=1, max_value=32),
    height=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_image_raw_roundtrip(width, height, seed):
    image = Image.test_pattern(width, height, seed)
    rebuilt = Image.from_raw_rgb(image.to_raw_rgb(), width, height)
    assert rebuilt.pixel_match_rate(image) == 1.0


@given(fraction=st.floats(min_value=0.05, max_value=1.0))
def test_corruption_fraction_close_to_requested(fraction):
    image = Image.test_pattern(20, 20, seed=1)
    corrupted = image.corrupted(fraction)
    marked = corrupted.marker_fraction((0xFF, 0xFF, 0xFF))
    # Row quantization bounds the error by one row.
    assert abs(marked - fraction) <= 1 / 20 + 1e-9


# -- xmodel ---------------------------------------------------------------------------

@given(
    name=st.sampled_from(MODEL_NAMES),
    input_hw=st.sampled_from([16, 24, 32]),
)
@settings(max_examples=20, deadline=None)
def test_xmodel_serialization_roundtrip(name, input_hw):
    model = build_model(name, input_hw=input_hw)
    rebuilt = XModel.parse(model.serialize())
    assert rebuilt == model
    assert rebuilt.subgraph.macs == model.subgraph.macs


@given(blob=st.binary(max_size=64))
def test_xmodel_parse_never_crashes_on_garbage(blob):
    from repro.errors import XModelFormatError

    try:
        XModel.parse(blob)
    except XModelFormatError:
        pass  # rejection is the expected outcome for garbage
