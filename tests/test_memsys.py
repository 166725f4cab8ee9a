import pytest

from culsim.memsys import MemoryFault, MemoryModel, MemoryPort


def test_unwritten_lines_read_as_zero():
    mem = MemoryModel(16, read_latency=20)
    mem.read(0x40, now=0, tag="t")
    ((tag, addr, data),) = mem.take_completions(20)
    assert data == bytes(16)
    assert tag == "t" and addr == 0x40


def test_read_latency_timing():
    mem = MemoryModel(16, read_latency=20)
    due = mem.read(0x40, now=10, tag=None)
    assert due == 30
    assert mem.take_completions(29) == []
    assert len(mem.take_completions(30)) == 1


def test_take_completions_returns_due_reads_in_issue_order():
    mem = MemoryModel(16, read_latency=5)
    mem.read(0x40, now=0, tag="a")
    mem.read(0x80, now=1, tag="b")
    mem.read(0xC0, now=3, tag="c")
    assert [tag for tag, _, _ in mem.take_completions(6)] == ["a", "b"]
    assert [tag for _, tag, _, _ in mem.inflight] == ["c"]  # not yet due: stays
    assert mem.take_completions(7) == []
    assert [tag for tag, _, _ in mem.take_completions(8)] == ["c"]
    assert not mem.inflight


def test_write_then_read_same_line_observes_the_write():
    mem = MemoryModel(16, read_latency=20)
    payload = bytes(range(16))
    mem.write(0x40, payload)
    mem.read(0x40, now=0, tag=None)
    ((_, _, data),) = mem.take_completions(100)
    assert data == payload


def test_two_writes_last_one_wins():
    mem = MemoryModel(16, read_latency=20)
    mem.write(0x40, bytes([1]) * 16)
    mem.write(0x40, bytes([2]) * 16)
    assert mem.peek(0x40) == bytes([2]) * 16


def test_independent_lines_do_not_interfere():
    mem = MemoryModel(16, read_latency=20)
    mem.write(0x40, bytes([1]) * 16)
    mem.write(0x80, bytes([2]) * 16)
    assert mem.peek(0x40) != mem.peek(0x80)


def test_misaligned_access_faults():
    mem = MemoryModel(16, read_latency=20)
    with pytest.raises(MemoryFault):
        mem.read(0x41, 0, None)
    with pytest.raises(MemoryFault):
        mem.write(0x44, bytes(16))


def test_wrong_sized_write_faults():
    mem = MemoryModel(16, read_latency=20)
    with pytest.raises(MemoryFault):
        mem.write(0x40, bytes(8))


def test_read_counters_track_lines():
    mem = MemoryModel(16, read_latency=20)
    mem.read(0x40, 0, None)
    mem.read(0x40, 1, None)
    mem.read(0x80, 2, None)
    assert mem.reads == 3


def test_image_preload():
    mem = MemoryModel(4, read_latency=20)
    mem.load_image("# comment\n40 01 02 03 04\n44 aa bb cc dd\n")
    assert mem.peek(0x40) == bytes([1, 2, 3, 4])
    assert mem.peek(0x44) == bytes([0xAA, 0xBB, 0xCC, 0xDD])


def test_image_preload_errors_carry_line_numbers():
    mem = MemoryModel(4, read_latency=20)
    with pytest.raises(MemoryFault, match="line 2"):
        mem.load_image("40 01 02 03 04\n44 zz\n")
    with pytest.raises(MemoryFault, match="line 1"):
        mem.load_image("40 01 02\n")


def test_port_reads_wait_only_for_same_line_writebacks():
    mem = MemoryModel(16, read_latency=1)
    port = MemoryPort(wb_depth=1)
    assert port.push_wb(0x40, bytes([1]) * 16)
    assert not port.push_wb(0x80, bytes(16))  # full: the caller stalls
    port.read_queue.append((0, 0x80, "other"))
    port.read_queue.append((0, 0x40, "same"))
    assert port.step(0, mem) and (mem.reads, mem.writes) == (1, 0)  # passes the 0x40 write-back
    assert port.step(1, mem) and (mem.reads, mem.writes) == (1, 1)  # 0x40 waits for it
    assert port.step(2, mem) and (mem.reads, mem.writes) == (2, 1)
    assert not port.step(3, mem) and not port.read_queue and not port.wb
    assert [(tag, data[0]) for tag, _, data in mem.take_completions(9)] == [
        ("other", 0), ("same", 1)]
