"""Tests for C pointer-to-index conversion."""

import pytest

from repro.analysis import PointerConversionError, convert_pointers, normalize_program
from repro.frontend import parse_c
from repro.ir import format_program

PAPER = """
float d[100];
float *i, *j;
for (j = d; j <= d + 90; j += 10)
    for (i = j; i < j + 5; i++)
        *i = *(i + 5);
"""


class TestPaperExample:
    def test_conversion(self):
        program, info = parse_c(PAPER)
        converted = convert_pointers(program, info)
        text = format_program(converted)
        assert "DO j = 0, 90, 10" in text
        assert "d(i) = d(i+5)" in text

    def test_full_pipeline_matches_paper(self):
        program, info = parse_c(PAPER)
        normalized = normalize_program(convert_pointers(program, info))
        text = format_program(normalized)
        assert "DO j = 0, 9" in text
        assert "DO i = 0, 4" in text
        assert "d(i+10*j) = d(i+10*j+5)" in text


class TestConversionRules:
    def test_pointer_with_offset_init(self):
        src = """
            float d[50];
            float *p;
            for (p = d + 10; p <= d + 20; p++) *p = 0;
        """
        program, info = parse_c(src)
        converted = convert_pointers(program, info)
        text = format_program(converted)
        assert "DO p = 10, 20" in text
        assert "d(p) = 0" in text

    def test_nested_deref_into_the_walked_array(self):
        # The inner *(d + 3) is converted before the outer dereference
        # strips d from its pointer, so it still finds its base array.
        src = """
            float d[100];
            float *p;
            for (p = d; p <= d + 50; p++) *p = *(p + *(d + 3));
        """
        program, info = parse_c(src)
        converted = convert_pointers(program, info)
        assert "d(p) = d(p+d(3))" in format_program(converted)

    def test_deref_of_unknown_pointer_rejected(self):
        src = "float *p; *p = 0;"
        program, info = parse_c(src)
        with pytest.raises(PointerConversionError):
            convert_pointers(program, info)

    def test_pointer_loop_with_unknown_base_rejected(self):
        src = "float *p; for (p = q; p < q + 5; p++) *p = 0;"
        program, info = parse_c(src)
        with pytest.raises(PointerConversionError):
            convert_pointers(program, info)

    def test_multi_dim_base_rejected(self):
        src = "float d[5][5]; float *p; for (p = d; p < d + 5; p++) *p = 0;"
        program, info = parse_c(src)
        with pytest.raises(PointerConversionError):
            convert_pointers(program, info)

    def test_non_pointer_program_untouched(self):
        src = "float d[10]; int i; for (i = 0; i < 5; i++) d[i] = d[i+5];"
        program, info = parse_c(src)
        converted = convert_pointers(program, info)
        assert "d(i) = d(i+5)" in format_program(converted)
