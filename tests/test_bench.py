import pytest

from pglblab.bench import CSV_HEADER, BenchRow, bench_family, to_csv, to_markdown


@pytest.fixture(scope="module")
def rows():
    return bench_family(2)


def test_bench_produces_one_row_per_k(rows):
    assert [row.k for row in rows] == [1, 2]


def test_bench_rows_match_family_quantities(rows):
    assert [row.length_original for row in rows] == [28, 52]
    assert all(row.mid_original == 4 for row in rows)
    assert all(row.flag == 0 for row in rows)
    assert [row.state_nodes for row in rows] == [51, 181]


def test_bench_projection_columns(rows):
    for row in rows:
        assert row.length_specialized > row.length_original
        assert row.mid_specialized <= 5
        assert row.length_dispatch > row.length_original
        assert row.mid_dispatch > row.mid_original


def test_bench_is_deterministic_mod_wall_clock():
    def stable(row):
        return (
            row.k,
            row.length_original,
            row.mid_original,
            row.length_specialized,
            row.mid_specialized,
            row.length_dispatch,
            row.mid_dispatch,
            row.state_nodes,
            row.flag,
        )

    assert [stable(r) for r in bench_family(1)] == [stable(r) for r in bench_family(1)]


def test_bench_csv_shape(rows):
    text = to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        for field in fields:
            float(field)  # all-numeric, no quoting needed


def test_bench_markdown_mirrors_csv(rows):
    md = to_markdown(rows)
    lines = md.strip().split("\n")
    assert len(lines) == 2 + len(rows)
    assert lines[0].startswith("| k |")
    assert all(line.startswith("|") for line in lines)


def test_bench_kmax_bounds():
    with pytest.raises(ValueError):
        bench_family(0)
    with pytest.raises(ValueError):
        bench_family(9)


def test_bench_row_csv_line_field_order():
    row = BenchRow(1, 28, 4, 71, 1, 70, 15, 51, 1.0, 2.0, 3.0, 4.0, 5.0, 0)
    assert row.csv_line() == "1,28,4,71,1,70,15,51,1.0,2.0,3.0,4.0,5.0,0"


def test_bench_analyses_each_program_once(monkeypatch):
    import pglblab.analyzer as analyzer
    import pglblab.bench as bench
    import pglblab.projector as projector

    built, analysed = [], []
    real_build, real_mid = analyzer.build_state_graph, analyzer.compute_mid

    def build(p, params):
        built.append(p)
        return real_build(p, params)

    def mid(graph, aux):
        analysed.append(graph.program)
        return real_mid(graph, aux)

    for module in (analyzer, bench, projector):
        monkeypatch.setattr(module, "build_state_graph", build, raising=False)
        monkeypatch.setattr(module, "compute_mid", mid, raising=False)
    rows = bench_family(2)
    assert all(row.flag == 0 for row in rows)
    assert len(built) == 3 * len(rows)
    assert len(analysed) == 3 * len(rows)
    assert len(set(built)) == len(built)
