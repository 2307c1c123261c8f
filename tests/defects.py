"""The planted-defect gate: small faults, each of which some test must catch.

Each entry of DEFECTS names a file under src/qgrass/, an exact text that
occurs once in it and the text that replaces it, and the test ids recorded
as failing on the result.  tests/test_defects.py checks in tier-1 that
every old text still occurs exactly once, so a refactor that moves the
code fails there, naming the defect, and the entry is updated with it.

Run as a script, outside tier-1, it plants each defect in turn (or those
whose labels are given as arguments) in a copy of the repository, schemas
and all but without .git, and runs the recorded killers there; only when
every killer passes does it run the rest of tier-1.  It prints
"killed" or "survived" per defect and exits 1 if any defect survived:

    python tests/defects.py [LABEL ...]

A survivor is a gap in the tests: add a test that kills it, and keep the
defect as it is.  An entry goes only when the code it edits is gone.
Standard library only.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgrass"
# tier-1, less the table's own check, which a planted defect fails by construction
TIER1 = ["-q", "--continue-on-collection-errors", "--ignore=tests/test_defects.py"]


class Defect(NamedTuple):
    label: str
    path: str  # relative to src/qgrass/
    old: str
    new: str
    killers: tuple[str, ...]


DEFECTS = (
    Defect(
        "signed_permutations negates the second permutation's sign",
        "polyring.py",
        "return tuple((perm, lattice.sort_sign(perm)) for perm in itertools.permutations(range(n)))",
        "return tuple(\n"
        "        (perm, -lattice.sort_sign(perm) if k == 1 else lattice.sort_sign(perm))\n"
        "        for k, perm in enumerate(itertools.permutations(range(n)))\n"
        "    )",
        (
            "tests/test_syzygy.py::test_r_equals_s_at_constant_weight",
            "tests/test_cli.py::test_schubert_images",
            "tests/test_maps.py::test_chi_equals_weight_initial_form",
        ),
    ),
    Defect(
        "the subduction walk starts one candidate late",
        "straighten.py",
        "for lead in candidates[bisect.bisect_left(candidates, start):]:",
        "for lead in candidates[bisect.bisect_left(candidates, start) + 1:]:",
        (
            "tests/test_straighten.py::test_classical_p2_matches_oracle",
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_on_every_pair[Context(p=3, m=3, n=1, q=2)]",
            "tests/test_straighten.py::test_skew_groebner_14_4",
        ),
    ),
    Defect(
        "_net stores a cancelled count as 0",
        "straighten.py",
        "        if c:\n            pos[w] = c\n        else:\n            del pos[w]\n",
        "        pos[w] = c\n",
        (
            "tests/test_fast_paths.py::test_count_product_matches_polynomial_product",
        ),
    ),
    Defect(
        "the kernel oracle skips a group whose leads are at most one short of distinct",
        "straighten.py",
        "for u, v in pairs if u in leads and v in leads}) == len(pairs):",
        "for u, v in pairs if u in leads and v in leads}) >= len(pairs) - 1:",
        (
            "tests/test_straighten.py::test_classical_p2_matches_oracle",
            "tests/test_syzygy.py::test_p2_spans_recorded[params0-0]",
            "tests/test_straighten.py::test_oracle_dimensions",
        ),
    ),
    Defect(
        "meet_join returns (join, meet)",
        "lattice.py",
        "    return meet, join\n",
        "    return join, meet\n",
        (
            "tests/test_lattice.py::test_meet_join_examples",
            "tests/test_lattice.py::test_meet_join_comparable_is_min_max",
            "tests/test_syzygy.py::test_r_equals_s_at_constant_weight",
        ),
    ),
    Defect(
        "signed_image leaves its ints unsorted",
        "maps.py",
        "return tuple(sorted(pos)), tuple(sorted(neg))",
        "return tuple(pos), tuple(neg)",
        (
            "tests/test_straighten.py::test_subduct_thirty_term_relation_steps",
            "tests/test_straighten.py::test_subduct_comparable_single_step",
            "tests/test_cli.py::test_sagbi_check_caps_workers[4-4]",
        ),
    ),
    Defect(
        "_lead takes pos[0] whenever there is one",
        "straighten.py",
        "    if pos and not (neg and neg[0] < pos[0]):\n",
        "    if pos:\n",
        (
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_with_a_zero_image",
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_in_intervals[146^1-235^2]",
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_on_every_pair[Context(p=3, m=3, n=1, q=2)]",
        ),
    ),
    Defect(
        "_count_product adds 1 instead of c when |c| >= 2",
        "straighten.py",
        "counts[w] = counts.get(w, 0) + c",
        "counts[w] = counts.get(w, 0) + 1",
        (
            "tests/test_syzygy.py::test_lift_check_fires_on_a_flipped_relation",
            "tests/test_syzygy.py::test_skew_syzygy_w_ten_terms",
            "tests/test_straighten.py::test_subduct_thirty_term_relation_steps",
        ),
    ),
    Defect(
        "a failed subduction run is rebuilt one step early",
        "straighten.py",
        "    done = bisect.bisect_left(taken, first)\n",
        "    done = max(bisect.bisect_left(taken, first) - 1, 0)\n",
        (
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_with_a_zero_image",
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_with_a_lead_dropped",
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_on_failed_runs",
        ),
    ),
    Defect(
        "a zero image is an internal error at any halt",
        "straighten.py",
        "    if halt is not None and halt[0] == first:\n",
        "    if halt is not None:\n",
        (
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_with_a_zero_image",
        ),
    ),
    Defect(
        "the kernel oracle returns its relations ascending",
        "straighten.py",
        "return [relations[ij] for ij in sorted(relations, reverse=True)]",
        "return [relations[ij] for ij in sorted(relations)]",
        (
            "tests/test_fast_paths.py::test_kernel_oracle_is_the_reduced_kernel_basis[params6-interval6]",
            "tests/test_fast_paths.py::test_kernel_oracle_never_skips_a_group_with_a_zero_image",
        ),
    ),
    Defect(
        "TermOrder.key without the degree",
        "polyring.py",
        "        return len(w), tuple(w)\n",
        "        return 0, tuple(w)\n",
        (
            "tests/test_fast_paths.py::test_key_sign_matches_compare[C]",
        ),
    ),
    Defect(
        "Packer.unpack caps exponents at 1",
        "polyring.py",
        "pairs.append((self.variables[off], n >> off))",
        "pairs.append((self.variables[off], min(n >> off, 1)))",
        (
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_on_failed_runs",
            "tests/test_fast_paths.py::test_count_product_matches_polynomial_product",
            "tests/test_fast_paths.py::test_packer_refuses_an_exponent_beyond_its_digit",
        ),
    ),
    Defect(
        "_degree_key puts the shift 2 bits lower",
        "straighten.py",
        "+ (u.shift << 2 * ctx.width)",
        "+ (u.shift << 2 * ctx.width - 2)",
        (
            "tests/test_fast_paths.py::test_table_leads_match_standard_monomials[ctx1-interval1]",
            "tests/test_fast_paths.py::test_multidegree_key_is_the_tuple_multidegree[(2, 2, 1, 2)]",
        ),
    ),
    Defect(
        "subduct's lead check is off",
        "straighten.py",
        "        if lead_u[0] + lead_v[0] != lead:\n",
        "        if False:\n",
        (
            "tests/test_straighten.py::test_subduct_lead_check_fires",
        ),
    ),
    Defect(
        "the kernel oracle keys a relation (j, i)",
        "straighten.py",
        "relations[at[u], at[v]] = Polynomial(",
        "relations[at[v], at[u]] = Polynomial(",
        (
            "tests/test_fast_paths.py::test_kernel_oracle_never_skips_a_group_with_a_zero_image",
            "tests/test_fast_paths.py::test_kernel_oracle_is_the_reduced_kernel_basis[params6-interval6]",
        ),
    ),
    Defect(
        "interval_mask uses the raw images at every q",
        "straighten.py",
        "        if ctx.q == ctx.n * ctx.p:\n",
        "        if True:\n",
        (
            "tests/test_straighten.py::test_oracle_dimensions",
            "tests/test_syzygy.py::test_coefficient_relations_report_3_3_1",
            "tests/test_syzygy.py::test_p2_spans_recorded[params0-0]",
        ),
    ),
    Defect(
        "rank_of also counts a row whose reduction ends at zero",
        "linalg.py",
        "            _add_scaled(row, base, -row[c])\n    return len(pivots)\n",
        "            _add_scaled(row, base, -row[c])\n"
        "        else:\n"
        "            pivots[object()] = row\n"
        "    return len(pivots)\n",
        (
            "tests/test_syzygy.py::test_rank_of_span_duplicates",
            "tests/test_syzygy.py::test_lifted_plucker_relations_span_the_coefficient_relations[params0-25]",
            "tests/test_syzygy.py::test_plucker_relations_span_the_classical_quadrics[2-2]",
        ),
    ),
    Defect(
        "image_blocks drops the last composition",
        "maps.py",
        "        for levels in _compositions(u.shift, ctx)\n",
        "        for levels in _compositions(u.shift, ctx)[:-1]\n",
        (
            "tests/test_fast_paths.py::test_reduced_groebner_matches_straightening_loop[ctx0-None]",
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_with_a_zero_image",
            "tests/test_fast_paths.py::test_signed_image_refuses_a_repeated_term",
        ),
    ),
    Defect(
        "x_packer assigns its offsets in descending var_key order",
        "polyring.py",
        "    return Packer(X_ORDER, variables, 2 * ctx.p)\n",
        "    descending = TermOrder(lambda v: tuple(-k for k in X_ORDER.var_key(v)))\n"
        "    return Packer(descending, variables, 2 * ctx.p)\n",
        (
            "tests/test_fast_paths.py::test_walk_matches_running_minimum_on_failed_runs",
        ),
    ),
    Defect(
        "signed_image files each term on the other sign's side",
        "maps.py",
        "(pos if sign > 0 else neg).append(sum(entries))",
        "(neg if sign > 0 else pos).append(sum(entries))",
        (
            "tests/test_maps.py::test_composition_identity",
            "tests/test_maps.py::test_chi_equals_weight_initial_form",
            "tests/test_maps.py::test_phi_golden_expansion",
        ),
    ),
    Defect(
        "the kernel oracle keys a relation by min(combo)",
        "straighten.py",
        "            u, v = pairs[max(combo)]\n",
        "            u, v = pairs[min(combo)]\n",
        (
            "tests/test_fast_paths.py::test_kernel_oracle_is_the_reduced_kernel_basis[params6-interval6]",
            "tests/test_cli.py::test_pinned_stdout[--p 3 --m 3 --q 1 obvious --rank]",
            "tests/test_straighten.py::test_oracle_dimensions",
        ),
    ),
    Defect(
        "the kernel oracle's skip counts a zero image as a distinct lead",
        "straighten.py",
        "if len({leads[u] + leads[v] for u, v in pairs if u in leads and v in leads}) == len(pairs):",
        "if len({leads[u] + leads[v] if u in leads and v in leads else (u, v) for u, v in pairs})"
        " == len(pairs):",
        (
            "tests/test_fast_paths.py::test_kernel_oracle_never_skips_a_group_with_a_zero_image",
        ),
    ),
    Defect(
        "_variable_grid ignores the mask on level-0 variables",
        "maps.py",
        "None if (v := XVar(i, j, l)) in mask else v",
        "None if (v := XVar(i, j, l)) in mask and l else v",
        (
            "tests/test_maps.py::test_apply_hom_kills_outside_interval",
            "tests/test_cli.py::test_schubert_images",
            "tests/test_maps.py::test_masked_self_image_is_signed_lead",
        ),
    ),
    Defect(
        "young_codes fields without their guard bit",
        "lattice.py",
        "    bits = ctx.stacked_width.bit_length() + 1\n",
        "    bits = ctx.stacked_width.bit_length()\n",
        (
            "tests/test_syzygy.py::test_r_equals_s_at_constant_weight",
            "tests/test_straighten.py::test_classical_p2_is_plucker",
            "tests/test_lattice.py::test_young_codes_compare_like_leq_on_every_pair[(2, 2, 1, 2)]",
        ),
    ),
    Defect(
        "the chi command prints phi",
        "cli.py",
        '("chi", "X", lambda u, ctx: maps.chi(u, ctx)),',
        '("chi", "X", lambda u, ctx: maps.phi(u, ctx)),',
        (
            "tests/test_cli.py::test_pinned_stdout[--p 3 --m 3 --n 1 chi 156^1]",
            "tests/test_dead_code.py::test_no_new_definition_is_used_by_the_tests_alone",
        ),
    ),
    Defect(
        "poset list and poset pairs write compact JSON",
        "cli.py",
        "        print(json.dumps(rows), file=out)\n",
        '        print(json.dumps(rows, separators=(",", ":")), file=out)\n',
        (
            "tests/test_cli.py::test_poset_json_bytes",
        ),
    ),
)


def pytest(tree: pathlib.Path, args) -> int:
    """pytest's exit code for args, run on the tier-1 settings in tree."""
    env = dict(os.environ, PYTHONPATH="src")
    cmd = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode} on {args}")
    return done.returncode


def killed(defect: Defect) -> bool:
    """Whether a copy of the repository with the defect planted fails its
    recorded killers or, when they all pass, the rest of tier-1."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, tree, ignore=ignore)
        path = tree / "src" / "qgrass" / defect.path
        text = path.read_text()
        if text.count(defect.old) != 1:
            raise RuntimeError(f"{defect.label}: the old text does not occur exactly once")
        path.write_text(text.replace(defect.old, defect.new))
        if defect.killers and pytest(tree, ["-q", *defect.killers]):
            return True
        return bool(pytest(tree, [*TIER1, "-x"]))


def main(labels) -> int:
    chosen = [d for d in DEFECTS if not labels or d.label in labels]
    if labels and len(chosen) != len(set(labels)):
        print(f"unknown labels: {sorted(set(labels) - {d.label for d in DEFECTS})}")
        return 2
    survivors = 0
    for defect in chosen:
        verdict = "killed" if killed(defect) else "survived"
        survivors += verdict == "survived"
        print(f"{verdict}: {defect.label}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
