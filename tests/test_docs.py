"""Documentation consistency guards.

DESIGN.md's experiment index and route census and README's example list
are contracts; these tests fail when a referenced bench, route, example or
document drifts away from the actual tree.
"""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


class TestDesignDoc:
    def test_exists_with_required_sections(self):
        text = (ROOT / "DESIGN.md").read_text()
        for heading in ("Substitutions", "System inventory", "Experiment index"):
            assert heading in text

    def test_referenced_benches_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        benches = set(re.findall(r"benchmarks/(test_bench_\w+\.py)", text))
        assert benches, "the experiment index must reference bench files"
        for name in benches:
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_every_bench_file_is_indexed(self):
        text = (ROOT / "DESIGN.md").read_text()
        on_disk = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
        indexed = set(re.findall(r"benchmarks/(test_bench_\w+\.py)", text))
        assert on_disk == indexed


class TestRouteCensus:
    def test_census_rows_equal_registered_routes(self, small_session, tmp_path):
        """A route added without a census row fails, and so does a stale row."""
        from repro.server import VapApp

        text = (ROOT / "DESIGN.md").read_text()
        section = text.split("### Route census", 1)[1].split("\n## ", 1)[0]
        rows = set(
            re.findall(r"^\| `(GET|POST|PUT|DELETE) (/\S+)` \|", section, re.M)
        )
        app = VapApp(small_session, jobs_root=str(tmp_path))
        registered = {(route.method, route.path) for route in app.router._routes}
        assert rows == registered


class TestReadme:
    def test_referenced_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        examples = set(re.findall(r"examples/(\w+\.py)", text))
        assert examples
        for name in examples:
            assert (ROOT / "examples" / name).exists(), name

    def test_quickstart_code_block_runs(self):
        """The README's inline snippet must stay executable."""
        text = (ROOT / "README.md").read_text()
        match = re.search(r"```python\n(.*?)```", text, re.S)
        assert match, "README must keep a python quickstart block"
        snippet = match.group(1)
        # Shrink the data set so the doc test stays fast.
        snippet = snippet.replace("n_customers=250, n_days=90", "n_customers=40, n_days=14")
        exec(compile(snippet, "<README quickstart>", "exec"), {})


class TestExperimentsDoc:
    def test_covers_every_out_table(self):
        """Every regenerated table has a narrative home in EXPERIMENTS.md."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        out_dir = ROOT / "benchmarks" / "out"
        if not out_dir.exists():
            return  # benches not run yet in this checkout
        for table in out_dir.glob("*.txt"):
            assert table.name in text, f"{table.name} missing from EXPERIMENTS.md"
