"""Tests for the trace disassembler and the command-line driver."""

import pytest
from record_traces import trace_from_records

from repro.isa.disasm import format_record, listing, mnemonic_histogram, side_by_side
from repro.isa.opcodes import Category, FUClass
from repro.isa.trace import TraceRecord
from repro.kernels.base import execute
from repro.kernels.registry import KERNELS
from repro.__main__ import main as cli_main


def _record(**kw):
    defaults = dict(
        name="vld", category=Category.VMEM, fu=FUClass.MEM, latency=0
    )
    defaults.update(kw)
    return TraceRecord(**defaults)


class TestFormatRecord:
    def test_alu(self):
        text = format_record(
            _record(name="add", category=Category.SARITH, fu=FUClass.INT,
                    latency=1, dsts=(3,), srcs=(1, 2))
        )
        assert "add" in text and "r3" in text and "r1,r2" in text

    def test_load_shows_address(self):
        text = format_record(_record(addr=0x40, row_bytes=16, dsts=(1,)))
        assert "ld@0x40/16B" in text

    def test_store_marked(self):
        text = format_record(_record(addr=8, row_bytes=8, is_store=True))
        assert "st@0x8" in text

    def test_vector_rows_and_stride(self):
        text = format_record(_record(addr=64, row_bytes=16, rows=16, stride=800))
        assert "rows=16" in text and "stride=800" in text

    def test_branch_outcome(self):
        taken = format_record(
            _record(name="br", category=Category.SCTRL, fu=FUClass.INT,
                    latency=1, addr=-1, is_branch=True, taken=True)
        )
        assert "taken" in taken


class TestListing:
    def test_numbered_lines(self):
        run = execute(KERNELS["comp"], "vmmx64", seed=0)
        text = listing(run.trace, limit=5)
        lines = text.splitlines()
        assert len(lines) == 6  # 5 + truncation marker
        assert lines[0].startswith("    0")
        assert "more)" in lines[-1]

    def test_full_listing_no_marker(self):
        t = trace_from_records([_record(dsts=(1,), addr=0, row_bytes=8)])
        assert "more" not in listing(t)

    def test_histogram(self):
        run = execute(KERNELS["motion1"], "vmmx128", seed=0)
        hist = dict(mnemonic_histogram(run.trace))
        assert hist["vld"] == 34
        assert "vsad.acc" in hist

    def test_side_by_side_has_columns(self):
        a = execute(KERNELS["motion1"], "mmx128", seed=0).trace
        b = execute(KERNELS["motion1"], "vmmx128", seed=0).trace
        a.name, b.name = "mmx128", "vmmx128"
        text = side_by_side([a, b], limit=5)
        assert "mmx128" in text and "vmmx128" in text
        assert text.count("|") >= 3 * 6


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "motion1" in out and "vmmx128" in out

    def test_kernel_run(self, capsys):
        assert cli_main(["kernel", "ltpfilt", "--isa", "vmmx64", "--way", "4"]) == 0
        out = capsys.readouterr().out
        assert "functional check: ok" in out
        assert "cycles" in out

    def test_kernel_listing_flag(self, capsys):
        assert cli_main(
            ["kernel", "comp", "--isa", "mmx64", "--way", "2", "--listing", "6"]
        ) == 0
        assert "listing:" in capsys.readouterr().out

    def test_unknown_kernel(self, capsys):
        assert cli_main(["kernel", "fft"]) == 1

    def test_scalar_isa_rejected_for_timing(self, capsys):
        assert cli_main(["kernel", "comp", "--isa", "scalar"]) == 1
