"""Mutation gate: every mutant in MUTANTS must make the tests named with it fail.

    python tools/mutants.py

The runner copies src/, tools/, tests/, perfbench/, pyproject.toml and
BENCHMARK.json (perfbench/tracing.py reads it) into one temporary directory;
the checkout is only read.  It first runs every named test on the unmutated
copy, which must pass.  Then, one mutant at a time, it
replaces `old` by `new` in the mutant's file, runs
`python -m pytest -x -q -p no:cacheprovider <tests>` with a timeout and
restores the file.  Each pytest child may map at most MEMORY_LIMIT bytes
(RLIMIT_AS, set in that child only), so a mutant that makes a test grow
without bound ends in a MemoryError, not in a host out of memory.  It
prints one line per mutant, killed, survived, timeout, memout (pytest's
output shows a MemoryError) or error (pytest could not run the tests), and a
last line "N of M killed".

Exit status 1 when any mutant is not killed (a timeout or memout is not a kill), or
when the table does not match the tree: an `old` missing from its file or
occurring more than once, an `old` equal to its `new`, a repeated id, or a
named test `path::name[...]` whose file does not exist or has no
module-level `def name` (read with ast; nothing is imported).  A change that
rewrites a guarded line therefore carries its mutant forward;
tests/test_mutants.py checks the table on every test run.
"""

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tools", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")
TIMEOUT_S = 120
MEMORY_LIMIT = 2 << 30

UVPOLY = "src/heavylight/uvpoly.py"
SYMSERIES = "src/heavylight/symseries.py"
BISYMSERIES = "src/heavylight/bisymseries.py"
PIPELINE = "src/heavylight/pipeline.py"
PARTITIONS = "src/heavylight/partitions.py"
FIXTURES = "src/heavylight/fixtures.py"
VERIFY = "src/heavylight/verify.py"
TABLES = "src/heavylight/tables.py"
GENERATOR = "tools/generate_fixtures.py"
POWERSERIES = "src/heavylight/powerseries.py"
ORACLE = "src/heavylight/oracle.py"
T_UVPOLY = "tests/test_uvpoly.py"
T_UVPOLY_REF = "tests/test_uvpoly_reference.py"
T_SYMSERIES = "tests/test_symseries.py"
T_SERIES_REF = "tests/test_series_reference.py"
T_SCHUR_REF = "tests/test_schur_reference.py"
T_BISYMSERIES = "tests/test_bisymseries.py"
T_PIPELINE = "tests/test_pipeline.py"
T_PARTITIONS = "tests/test_partitions.py"
T_FIXTURES = "tests/test_fixtures_io.py"
T_TABLES = "tests/test_tables_cli.py"
T_GENERATOR = "tests/test_generate_fixtures.py"
T_ACCEPTANCE = "tests/test_acceptance.py"
T_POWERSERIES = "tests/test_powerseries.py"
T_ORACLE = "tests/test_oracle.py"
GOLDEN_ERRORS = f"{T_TABLES}::test_golden_parse_errors_carry_position"
RENDER_DIGESTS = f"{T_TABLES}::test_rendered_tables_match_their_recorded_digests"
REGEN = f"{T_GENERATOR}::test_regeneration_writes_the_benchmark_digests"
HISTOGRAM = f"{T_GENERATOR}::test_orbit_reduced_histogram_matches_the_brute_force_count"
CLOSED_FORM = f"{T_PIPELINE}::test_genus0_closed_form_is_the_exact_division"
MN_REFERENCE = f"{T_PARTITIONS}::test_mn_character_matches_the_border_strip_reference"
CANONICAL = f"{T_UVPOLY}::test_every_exponent_pair_is_one_tuple"
PS_REFERENCE = f"{T_POWERSERIES}::test_products_and_substitution_match_the_reference"
RUNNING_SUMS = f"{T_UVPOLY_REF}::test_running_sums_match_the_reference"
SERIES_PRODUCTS = f"{T_SERIES_REF}::test_products_and_coproduct_match_the_reference"
ORACLE_STABLE = f"{T_ORACLE}::test_oracle_compare_rows_the_stable_cells_only"
ORACLE_IDENTITY = f"{T_ORACLE}::test_oracle_input_agnostic_identity"
EXP_LOG_EQUATIONS = f"{T_POWERSERIES}::test_exp_and_log_solve_their_defining_equations"

# (id, path, old, new, tests): `old` occurs exactly once in `path`, and the
# pytest node ids in `tests` are expected to fail once it is replaced by `new`.
MUTANTS = (
    ("int-matches-any-digit", UVPOLY, 'INT = "[0-9]+"', 'INT = r"\\d+"',
     (f"{T_UVPOLY}::test_literals_outside_the_ascii_grammar_are_refused",
      f"{T_UVPOLY}::test_integer_literals_are_ascii")),
    ("uvpoly-zero-term-kept", UVPOLY,
     'raise ValueError(f"zero coefficient in uv-poly term: {raw!r}")', "pass",
     (f"{T_UVPOLY}::test_grammar_round_trip",
      f"{T_FIXTURES}::test_zero_term_is_refused_not_dropped")),
    ("uvpoly-repeated-exponent-kept", UVPOLY,
     'raise ValueError(f"duplicate exponent pair in uv-poly: ({a},{b})")', "pass",
     (f"{T_UVPOLY}::test_grammar_round_trip",)),
    ("tpoly-zero-term-kept", UVPOLY,
     'raise ValueError(f"zero coefficient in t-poly term {term!r}")', "pass",
     (f"{T_UVPOLY}::test_tpoly_zero_terms_are_refused",)),
    ("tpoly-odd-power-kept", UVPOLY,
     'raise ValueError("odd power of t cannot be a uv-polynomial")', "pass",
     (f"{T_TABLES}::test_parse_tpoly",)),
    ("tpoly-bare-power-coefficient", UVPOLY, '(const or coeff or "1")', '(const or coeff or "2")',
     (f"{T_TABLES}::test_parse_tpoly",)),
    ("comment-not-stripped", FIXTURES, 'line = raw.split("#", 1)[0].strip()',
     "line = raw.strip()",
     (f"{T_FIXTURES}::test_comments_and_blank_lines", f"{GOLDEN_ERRORS}[pair-repeated]")),
    ("fixture-record-from-dataclasses", FIXTURES, "from collections import namedtuple",
     "from collections import namedtuple\nfrom dataclasses import dataclass",
     ("tests/test_import_path.py::test_an_import_loads_no_dataclasses_machinery",)),
    ("fixture-repeated-header-kept", FIXTURES,
     'raise ValueError(f"repeated header {key!r}")', "pass",
     (f"{T_FIXTURES}::test_repeated_header_error",)),
    ("fixture-header-sign-unchecked", FIXTURES,
     'raise ValueError(f"{key} must be nonnegative, got {headers[key]}")', "pass",
     (f"{T_FIXTURES}::test_parse_error_carries_line_number",)),
    ("fixture-stability-unchecked", VERIFY,
     "all(stability_ok(fx.genus, sum(lam), 0) for lam in fx.data.coeffs)", "True",
     (f"{T_FIXTURES}::test_a_term_outside_the_stable_range_fails_its_fixture_row",)),
    ("fixture-weight0-term-unchecked", FIXTURES, 'poly.nums.keys() != {(0, 0)}', "False",
     (f"{T_FIXTURES}::test_a_non_constant_weight0_term_is_refused_at_load",)),
    ("fixture-term-before-genus-and-variant", FIXTURES, '{"genus", "variant", "truncation"}',
     '{"truncation"}', (f"{T_FIXTURES}::test_a_term_before_a_header_it_needs_is_refused",
                        f"{T_FIXTURES}::test_a_mutated_fixture_parses_or_names_a_line")),
    ("shared-open-series-keyed-by-truncation-only", VERIFY, '("open_series", name, t)',
     '("open_series", t)',
     (f"{T_TABLES}::test_cli_verify_all_suite", f"{T_ACCEPTANCE}::test_criterion_7_property_suites")),
    ("golden-repeated-pair-kept", TABLES,
     'raise ValueError(f"repeated pair {lam_s} {mu_s}")', "pass",
     (f"{GOLDEN_ERRORS}[pair-repeated]",)),
    ("golden-repeated-numeric-kept", TABLES, 'raise ValueError("repeated numeric line")', "pass",
     (f"{GOLDEN_ERRORS}[numeric-repeated]",)),
    ("golden-repeated-row-kept", TABLES, 'raise ValueError(f"repeated row {n}")', "pass",
     (f"{GOLDEN_ERRORS}[numeric-row-repeated]",)),
    ("golden-mode-unchecked", TABLES, "(full|partial)", r"(\S+)",
     (f"{GOLDEN_ERRORS}[row-unknown-mode]",)),
    ("golden-numeric-mode-unchecked", TABLES, "(full|inferred)", r"(\S+)",
     (f"{GOLDEN_ERRORS}[numeric-row-pair-table-mode]",)),
    ("golden-pair-colon-optional", TABLES, r"pair\s+(\S+)\s+(\S+)\s*:\s*",
     r"pair\s+(\S+)\s+(\S+)\s*:?\s*", (f"{GOLDEN_ERRORS}[pair-no-colon]",)),
    ("empty-table-prints-a-blank-line", TABLES, '"".join(line + "\\n" for line in lines)',
     '"\\n".join(lines) + "\\n"', (f"{T_TABLES}::test_an_empty_table_prints_no_blank_line",)),
    ("csv-without-header", TABLES, 'lines = [sep.join(header)] if fmt == "csv" else []',
     "lines = []", (RENDER_DIGESTS,)),
    ("latex-factor-tags-from-2", TABLES, "enumerate((lam, mu), start=1)",
     "enumerate((lam, mu), start=2)", (RENDER_DIGESTS,)),
    ("render-not-truncated", TABLES, "data = result.data.truncate(max_arity)",
     "data = result.data", (RENDER_DIGESTS,)),
    ("cli-int-builtin", "src/heavylight/cli.py", 'value = parse_int(text, "value")',
     "value = int(text)", (f"{T_TABLES}::test_cli_usage_error_exit_code",)),
    ("lowest-without-gcd", UVPOLY, "g = gcd(den, *nums.values())", "g = 1",
     (f"{T_UVPOLY_REF}::test_equal_values_are_equal_and_hash_alike",)),
    ("add-scales-one-operand", UVPOLY, "nums = {k: n * s1 for k, n in self.nums.items()}",
     "nums = dict(self.nums)", (f"{T_UVPOLY_REF}::test_ring_operations_match_the_reference",)),
    ("adams-scales-only-u", UVPOLY, "_pair(a * k, b * k)", "_pair(a * k, b)",
     (f"{T_UVPOLY}::test_adams",)),
    ("product-monomial-not-canonical", UVPOLY, "total[MONOMIALS.setdefault(m, m)] = x * y",
     "total[m] = x * y", (RUNNING_SUMS, CANONICAL)),
    ("product-first-term-unmultiplied", UVPOLY, ")] = x * y", ")] = x", (RUNNING_SUMS,
     f"{T_UVPOLY_REF}::test_ring_operations_match_the_reference", SERIES_PRODUCTS, PS_REFERENCE)),
    ("product-skips-the-lcm-rescale", UVPOLY, "x *= s", "pass",
     (RUNNING_SUMS, SERIES_PRODUCTS, PS_REFERENCE)),
    ("product-over-one-denominator", UVPOLY, "p.den * q.den", "p.den",
     (RUNNING_SUMS, SERIES_PRODUCTS, PS_REFERENCE)),
    ("scaled-add-ignores-the-weight", UVPOLY, "0) + x * s", "0) + x", (RUNNING_SUMS,)),
    ("mirror-monomial-not-canonical", UVPOLY, "_pair(dim - a, dim - b)", "(dim - a, dim - b)",
     (CANONICAL,)),
    ("quotient-monomial-not-canonical", UVPOLY, "{_pair(a, a): c * divisor.den",
     "{(a, a): c * divisor.den", (CANONICAL,)),
    ("parsed-monomial-not-canonical", UVPOLY, "{MONOMIALS.setdefault(k, k): n * (den // d)",
     "{k: n * (den // d)", (CANONICAL,)),
    ("mn-sign-parity-counts-the-moved-bead", PARTITIONS, "(low << r) - (low << 1)",
     "(low << r) - low", (MN_REFERENCE,)),
    ("mn-bead-moved-onto-a-bead", PARTITIONS, "beads & ~(beads >> r)", "beads",
     (MN_REFERENCE,)),
    ("mn-one-bead-too-few-below-the-tail", PARTITIONS, "(1 << r) - 1", "(1 << (r - 1)) - 1",
     (MN_REFERENCE,)),
    ("union-with-an-empty-left-side-drops-the-right", PARTITIONS, "return lam or mu", "return lam",
     (f"{T_PARTITIONS}::test_union_and_serialization",)),
    ("slot-without-rescale", UVPOLY, "nums[m] *= s", "nums[m] *= 1",
     (f"{T_SYMSERIES}::test_exp_log_round_trip",)),
    ("slot-without-weight-numerator", UVPOLY, "d // den * w.numerator", "d // den",
     (f"{T_SERIES_REF}::test_exp_and_its_inverse_match_the_reference",)),
    ("packed-bound-without-partition-count", SYMSERIES, "len(cols) * max(abs(w)", "max(abs(w)",
     (f"{T_SCHUR_REF}::test_two_sources_add_into_one_slot",)),
    ("packed-bound-without-weights", SYMSERIES,
     "len(cols) * max(abs(w) for col in cols.values() for _, w in col)", "len(cols)",
     (f"{T_SCHUR_REF}::test_one_source_spreads_over_the_largest_character",)),
    ("packed-bound-without-lcm-scaling", SYMSERIES, "c.nums.values())) * (den // c.den)",
     "c.nums.values()))",
     (f"{T_SCHUR_REF}::test_the_slot_bound_scales_each_numerator_to_the_block_lcm",)),
    ("packed-slots-without-sign-bit", SYMSERIES, ".bit_length() + 1", ".bit_length()",
     (f"{T_SCHUR_REF}::test_a_lone_numerator_at_the_sign_bit",)),
    ("packed-read-back-without-borrow", SYMSERIES, "x -= 1 << W", "pass",
     (f"{T_SCHUR_REF}::test_a_negative_slot_borrows_from_the_slot_above",)),
    ("packed-monomials-share-a-slot", SYMSERIES, "{m: W * i for", "{m: W * (i // 2) for",
     (f"{T_SCHUR_REF}::test_six_monomials_on_both_sides_of_the_diagonal_keep_their_own_slots",)),
    ("change-of-basis-maps-a-factor-twice", SYMSERIES, "parts[:f], parts[f + 1:]",
     "parts[:f], parts[f:]",
     (f"{T_SCHUR_REF}::test_numerators_near_and_past_the_machine_word",)),
    ("products-stop-one-arity-early", SYMSERIES, "if s1 + s2 > n:", "if s1 + s2 >= n:",
     (f"{T_SYMSERIES}::test_exp_series",)),
    ("reduced-keeps-zeros", UVPOLY, "nums = {m: x for m, x in nums.items() if x}", "pass",
     (f"{T_SERIES_REF}::test_a_monomial_that_cancels_leaves_no_zero_numerator",)),
    ("series-adams-keeps-coefficients", SYMSERIES, "): c.adams(k)", "): c",
     (f"{T_ACCEPTANCE}::test_criterion_7_property_suites",
      f"{T_SYMSERIES}::test_power_sum_plethysm_is_a_ring_map_that_maps_coefficients_by_adams")),
    ("adams-products-skip-a-part", SYMSERIES, "prods[part[i + 1:]]", "prods[part[i + 2:]]",
     (f"{T_SYMSERIES}::test_plethysm_examples",)),
    ("exp-weight-off-by-one", SYMSERIES, "Fraction(j, d))", "Fraction(j, d + 1))",
     (f"{T_SYMSERIES}::test_exp_series",)),
    ("log-weight-sign", SYMSERIES, "Fraction(-j, d)", "Fraction(j, d)",
     (f"{T_SYMSERIES}::test_exp_log_round_trip",)),
    ("log-mobius-unsigned", SYMSERIES, "Fraction(mu, d)", "Fraction(abs(mu), d)",
     (f"{T_SYMSERIES}::test_exp_log_round_trip",)),
    ("pleth-inverse-sign", SYMSERIES, "g.update((k, -c)", "g.update((k, c)",
     (f"{T_SYMSERIES}::test_pleth_inverse",)),
    ("canonical-order-factors-reversed", SYMSERIES, "tuple(map(sum, parts)), tuple(order",
     "tuple(map(sum, parts[::-1])), tuple(order", (RENDER_DIGESTS,)),
    ("exp-series-factorial-off-by-one", POWERSERIES, "factorial(k)", "factorial(k + 1)",
     (EXP_LOG_EQUATIONS,)),
    ("log-series-sign", POWERSERIES, "(-1) ** (k + 1)", "(-1) ** k", (EXP_LOG_EQUATIONS,)),
    ("reversion-inner-sum-one-term-short", POWERSERIES,
     "range(1, m - k + 2)", "range(1, m - k + 1)", (f"{T_POWERSERIES}::test_reversion",)),
    ("substitution-skips-outer-0", POWERSERIES, "for i in range(n + 1):",
     "for i in range(1, n + 1):", (PS_REFERENCE,)),
    ("bisym-key-mul-factors-swapped", BISYMSERIES,
     "(union(a[0], b[0]), union(a[1], b[1]))", "(union(a[1], b[1]), union(a[0], b[0]))",
     (f"{T_BISYMSERIES}::test_inject_is_ring_map",)),
    ("coproduct-binomial-off-by-one", BISYMSERIES, "comb(m, j)", "comb(m + 1, j)",
     (f"{T_BISYMSERIES}::test_coproduct",)),
    ("coproduct-copies-weight-one-terms", BISYMSERIES, "c if mult == 1 else c * mult",
     "c * mult", (f"{T_BISYMSERIES}::test_coproduct_keeps_the_coefficient_of_a_weight_one_term",)),
    ("numeric-substitutes-into-y", PIPELINE, '("x", "y"), 1, n)', '("x", "y"), 2, n)',
     (f"{T_PIPELINE}::test_numeric_pipeline_examples",)),
    ("stable-chi-without-log", PIPELINE, "(g + UVPoly.one()).log()", "(g + UVPoly.one())",
     (f"{T_PIPELINE}::test_chi_generating_functions",)),
    ("heavy-light-unmasked", PIPELINE, "_mask_stability(fx.genus, res)", "res",
     (f"{T_PIPELINE}::test_stability_mask",)),
    ("closed-light-order-zero", PIPELINE, "genus0_numeric_closed_form(max(n, 1))",
     "genus0_numeric_closed_form(n)",
     (f"{T_PIPELINE}::test_numeric_pipelines_at_order_zero_keep_the_constant_term",)),
    ("closed-form-factor-off-by-one", PIPELINE, "(UVPoly.uv_power(1) - k)",
     "(UVPoly.uv_power(1) - k - 1)", (CLOSED_FORM,)),
    ("closed-form-c2-sign", PIPELINE, "UVPoly.const(Fraction(-1, 2))",
     "UVPoly.const(Fraction(1, 2))", (CLOSED_FORM,)),
    ("corrector-adds-the-derivative", PIPELINE, "SymSeries.power_sum(1, trunc) - smooth",
     "SymSeries.power_sum(1, trunc) + smooth",
     (f"{T_PIPELINE}::test_genus0_closed_form_is_the_rank_of_the_corrector",)),
    ("requested-truncation-clamped", PIPELINE,
     'raise Refused(f"requested truncation {trunc} exceeds available {available}")',
     "return available", (f"{T_PIPELINE}::test_a_truncation_beyond_the_inputs_is_refused",)),
    ("open-series-wrong-kind-not-refused", PIPELINE,
     'raise Refused("open_series expects an open or weight0 fixture")',
     'raise ValueError("open_series expects an open or weight0 fixture")',
     (f"{T_TABLES}::test_cli_refuses_a_fixture_of_the_wrong_kind_in_one_line",)),
    ("numeric-rows-keep-unstable-cells", PIPELINE, "for m, n in cells if stability_ok(genus, m, n)}",
     "for m, n in cells}", (f"{T_TABLES}::test_cli_numeric_table_leaves_out_unstable_cells",)),
    ("expm1-keeps-its-constant", PIPELINE, 'identity("y", order).exp() - 1',
     'identity("y", order).exp()', (f"{T_PIPELINE}::test_numeric_pipeline_examples",)),
    ("light-chi-expm1-keeps-its-constant", PIPELINE, "compose(y.exp() - 1)", "compose(y.exp())",
     (f"{T_PIPELINE}::test_chi_generating_functions",)),
    ("tropical-unstable-kept", PIPELINE, "if not stability_ok(g, m, n):", "if False:",
     (f"{T_PIPELINE}::test_tropical_euler_refuses_unstable_components",
      f"{T_TABLES}::test_cli_tropical_refuses_an_unstable_component_in_one_line")),
    ("oracle-genus-zero", ORACLE, "stability_ok(fixture.genus, m, n)",
     "stability_ok(0, m, n)", ("tests/test_oracle.py::test_oracle_heavy_only_is_injection",)),
    ("oracle-compare-enumerates-past-the-cap", ORACLE,
     "if max_arity > ENUMERATION_CAP:", "if False:", (f"{T_ORACLE}::test_oracle_cap",)),
    ("oracle-compare-rows-unstable-cells", ORACLE,
     "if stability_ok(fixture.genus, m, total - m)]", "]", (ORACLE_STABLE,)),
    ("oracle-compare-passes-an-empty-range", ORACLE, "if not cells:", "if False:", (ORACLE_STABLE,)),
    ("oracle-joins-at-most-4-blocks", ORACLE, "for _ in range(blocks):",
     "for _ in range(min(blocks, 4)):", (f"{T_ORACLE}::test_stirling2",)),
    ("oracle-counts-moved-strata", ORACLE, "!= blocks[tau[x] - 1]", "is None",
     (ORACLE_IDENTITY,)),
    ("oracle-stratum-drops-the-heavy-cycles", ORACLE, "union(lam, nu)", "nu or lam",
     (ORACLE_IDENTITY, f"{T_ORACLE}::test_oracle_matches_pipeline_genus0")),
    ("oracle-strings-open-no-new-block", ORACLE, "default=-1) + 2", "default=-1) + 1",
     (ORACLE_IDENTITY, f"{T_ORACLE}::test_set_partitions_bell_numbers")),
    ("bareiss-divides-by-the-pivot", GENERATOR, "// prev for x, y", "// p for x, y",
     (f"{T_GENERATOR}::test_batched_solve_equals_one_solve_per_column",)),
    ("bareiss-without-row-swap", GENERATOR, "m[r], m[piv] = m[piv], m[r]", "pass",
     (f"{T_GENERATOR}::test_zero_first_pivot_forces_a_row_swap",)),
    ("bareiss-consistency-unchecked", GENERATOR,
     'raise ValueError("inconsistent linear system")', "pass",
     (f"{T_GENERATOR}::test_one_inconsistent_column_raises",)),
    ("histogram-orbit-weight-one", GENERATOR, "hist.get(t, 0) + (p - 1) // m",
     "hist.get(t, 0) + 1", (HISTOGRAM,)),
    ("histogram-cosets-of-the-squares", GENERATOR, "m = gcd(k, p - 1)", "m = gcd(2, p - 1)",
     (HISTOGRAM,)),
    ("histogram-twist-keeps-the-trace", GENERATOR, "hist[-t] = hist.get(-t, 0) + half",
     "hist[t] = hist.get(t, 0) + half", (HISTOGRAM,)),
    ("discriminant-squaring-chain-short", GENERATOR, "mul(mul(e8, e8), e8)", "mul(mul(e8, e8), e)",
     (f"{T_GENERATOR}::test_discriminant_coefficients_satisfy_the_hecke_relations",)),
    ("marked-count-orbit-off-by-one", GENERATOR, "(o[l] - c + 1)", "(o[l] - c)",
     (f"{T_GENERATOR}::test_genus0_smooth_matches_the_line_count",)),
    ("class-counts-drop-a-cycle-group", GENERATOR, "for lc in rest:", "for lc in rest[1:]:",
     (f"{T_GENERATOR}::test_twisted_marked_count_matches_the_per_call_reference",)),
    ("marked-count-without-phases", GENERATOR, "(o[l] - c + 1) * l for", "(o[l] - c + 1) for",
     (f"{T_GENERATOR}::test_twisted_marked_count_matches_the_per_call_reference",)),
    ("divisor-table-mobius-of-divisor", GENERATOR, "(mu := mobius(n // d))", "(mu := mobius(d))",
     (f"{T_GENERATOR}::test_genus0_smooth_matches_the_line_count",)),
    ("ends-swapped-product-off-by-one", GENERATOR, "(UVPoly.uv_power(1) - (k - 1))",
     "(UVPoly.uv_power(1) - k)",
     (f"{T_GENERATOR}::test_ends_swapped_rank_is_the_falling_product", REGEN)),
    ("necklace-rotation-weight", GENERATOR, "Fraction(euler_phi(d), 2 * d)",
     "Fraction(euler_phi(d), d)", (REGEN,)),
    ("necklace-reflection-weight", GENERATOR, "(Fraction(1, 4), refl)",
     "(Fraction(1, 2), refl)", (REGEN,)),
    ("light-rows-without-plethystic-inverse", GENERATOR,
     "from_schur(light, trunc).plethysm(exp_p1.pleth_inverse())",
     "from_schur(light, trunc).plethysm(exp_p1)",
     (f"{T_GENERATOR}::test_light_rows_give_the_series_back", REGEN)),
)


def module_functions(path: Path) -> set:
    """The module-level function names of a test file, read with ast, not imported."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def table_problems(root: Path = ROOT) -> list:
    """Each way MUTANTS does not match the tree at `root`, as one line of text."""
    ids = [mutant[0] for mutant in MUTANTS]
    problems = [f"{i}: repeated id" for i in sorted(set(ids)) if ids.count(i) > 1]
    names: dict = {}
    for mid, path, old, new, tests in MUTANTS:
        count = (root / path).read_text().count(old)
        if count != 1:
            problems.append(f"{mid}: `old` occurs {count} times in {path}")
        if old == new:
            problems.append(f"{mid}: `old` equals `new`")
        for test in tests:
            file, _, name = test.partition("::")
            if not (root / file).is_file():
                problems.append(f"{mid}: no test file {file}")
                continue
            if file not in names:
                names[file] = module_functions(root / file)
            if name and name.split("[")[0] not in names[file]:
                problems.append(f"{mid}: no test {test}")
    return problems


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_pytest(work: Path, tests) -> str:
    """The verdict on `tests` in `work`, as on a mutant: survived when they all pass,
    killed when one fails, timeout, memout when the output shows a MemoryError, or error."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    # no bytecode: a mutant of the same size restored within a second could
    # otherwise be served from a stale cache
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=TIMEOUT_S,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    if b"MemoryError" in done.stdout:
        return "memout"
    return {1: "killed", 0: "survived"}.get(done.returncode, "error")


def main() -> int:
    problems = table_problems()
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".work")
                shutil.copytree(ROOT / name, work / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, work / name)
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        if run_pytest(work, named) != "survived":
            print("the named tests do not all pass on the unmutated tree")
            return 1
        killed = 0
        for mid, path, old, new, tests in MUTANTS:
            target = work / path
            original = target.read_text()
            target.write_text(original.replace(old, new))
            try:
                verdict = run_pytest(work, tests)
            finally:
                target.write_text(original)
            killed += verdict == "killed"
            print(f"{verdict:<8}  {mid}", flush=True)
    print(f"{killed} of {len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
