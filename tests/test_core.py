import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import gossipfresh
from gossipfresh.analytic import closed_clustered, clustered_freshness
from gossipfresh.core import (
    Flat,
    GossipPolicy,
    NetworkSpec,
    Rates,
    cycles_problem,
    int_problem,
    name_problem,
    path_problem,
    per_stale_rate,
    require_valid,
    size_problem,
    stale_rate_rows,
    validate,
)
from gossipfresh.simulator import estimate_freshness_cycles

POLICIES = list(GossipPolicy)
rate = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
pos_rate = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@pytest.mark.parametrize(
    "policy,src,gsp,n,j,expected",
    [
        (GossipPolicy.DC_noRC, 1.0, 0.0, 4, 2, 0.25),
        (GossipPolicy.DC_RC, 1.0, 0.0, 4, 2, 0.5),
        (GossipPolicy.FC_allRC, 1.0, 1.0, 2, 1, 2.0),
        (GossipPolicy.FC_noRC, 1.0, 1.0, 3, 1, 1 / 3 + 1 / 2),
        (GossipPolicy.FC_sRC, 1.0, 1.0, 3, 1, 1 / 2 + 1 / 2),
    ],
)
def test_per_stale_rate_values(policy, src, gsp, n, j, expected):
    assert per_stale_rate(policy, src, gsp, n)[j] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("policy", POLICIES)
def test_single_node_rate_is_source_rate(policy):
    assert per_stale_rate(policy, 1.7, 5.0, 1).tolist() == [1.7]


@pytest.mark.parametrize("bad_j", [-1, 4, 5])
def test_fresh_count_out_of_range(bad_j):
    # the table holds exactly the states with at least one stale node
    table = per_stale_rate(GossipPolicy.DC_RC, 1.0, 0.0, 4)
    assert len(table) == 4
    assert bad_j not in range(len(table))


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        per_stale_rate(GossipPolicy.DC_noRC, 1.0, 0.0, 0)


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        per_stale_rate(GossipPolicy.DC_noRC, -1.0, 0.0, 3)
    with pytest.raises(ValueError):
        per_stale_rate(GossipPolicy.FC_noRC, 1.0, math.nan, 3)


@given(
    policy=st.sampled_from(POLICIES),
    src=rate,
    gsp=rate,
    n=st.integers(1, 128),
    j_raw=st.integers(0, 10**6),
)
def test_rate_nonnegative_and_finite(policy, src, gsp, n, j_raw):
    j = j_raw % n
    u = per_stale_rate(policy, src, gsp, n)[j]
    assert u >= 0.0
    assert math.isfinite(u)


@given(src=pos_rate, gsp=pos_rate, n=st.integers(2, 128), j_raw=st.integers(1, 10**6))
@example(src=116.0, gsp=1.5, n=15, j_raw=1)
@example(src=1.0, gsp=5.0, n=10, j_raw=7677)
def test_stale_targeting_dominates_even_split(src, gsp, n, j_raw):
    j = 1 + j_raw % (n - 1)
    dc_rc = per_stale_rate(GossipPolicy.DC_RC, src, gsp, n)[j]
    dc_norc = per_stale_rate(GossipPolicy.DC_noRC, src, gsp, n)[j]
    assert dc_rc >= dc_norc
    fc_all = per_stale_rate(GossipPolicy.FC_allRC, src, gsp, n)[j]
    fc_src = per_stale_rate(GossipPolicy.FC_sRC, src, gsp, n)[j]
    fc_no = per_stale_rate(GossipPolicy.FC_noRC, src, gsp, n)[j]
    assert fc_all >= fc_src >= fc_no


@given(src=pos_rate, gsp=pos_rate, n=st.integers(1, 128))
def test_all_policies_share_the_initial_source_rate(src, gsp, n):
    # with nobody fresh there is nothing to gossip and nothing to re-aim
    dc = per_stale_rate(GossipPolicy.DC_noRC, src, gsp, n)[0]
    for policy in POLICIES:
        assert per_stale_rate(policy, src, gsp, n)[0] == dc


@given(src=rate, n=st.integers(1, 128))
def test_zero_gossip_collapses_to_dc(src, n):
    dc_norc = per_stale_rate(GossipPolicy.DC_noRC, src, 0.0, n).tolist()
    assert per_stale_rate(GossipPolicy.FC_noRC, src, 0.0, n).tolist() == dc_norc
    dc_rc = per_stale_rate(GossipPolicy.DC_RC, src, 0.0, n).tolist()
    assert per_stale_rate(GossipPolicy.FC_sRC, src, 0.0, n).tolist() == dc_rc
    assert per_stale_rate(GossipPolicy.FC_allRC, src, 0.0, n).tolist() == dc_rc


def test_per_stale_rate_returns_the_whole_table():
    table = per_stale_rate(GossipPolicy.FC_allRC, 1.0, 1.0, 2)
    assert isinstance(table, np.ndarray) and table.dtype == np.float64
    assert table.tolist() == [0.5, 2.0]


@pytest.mark.parametrize("policy", POLICIES)
def test_stale_rate_rows_broadcast_a_column_of_sizes_over_a_row_of_counts(policy):
    sizes, counts = [5, 6, 9, 40], [0, 2, 4]
    n, j = np.array(sizes, dtype=float)[:, None], np.array(counts, dtype=float)
    stale, u = stale_rate_rows(policy, 1.3, 0.7, n, j)
    assert stale.shape == u.shape == (4, 3)
    for size, row, stale_row in zip(sizes, u.tolist(), stale.tolist()):
        assert row == per_stale_rate(policy, 1.3, 0.7, size)[counts].tolist()
        assert stale_row == [size - c for c in counts]


@pytest.mark.parametrize("policy", POLICIES)
def test_per_stale_rate_returns_a_fresh_writable_array(policy):
    for n in (1, 2, 7):
        table = per_stale_rate(policy, 1.3, 0.7, n)
        values = table.tolist()
        assert table.dtype == np.float64 and table.shape == (n,) and table.flags.writeable
        table[:] = -1.0
        again = per_stale_rate(policy, 1.3, 0.7, n)
        assert again.tolist() == values and not np.shares_memory(table, again)


@pytest.mark.parametrize(
    "bad,field",
    [
        (dict(lambda_e=-1.0, lambda_s=1.0), "lambda_e"),
        (dict(lambda_e=1.0, lambda_s=math.inf), "lambda_s"),
        (dict(lambda_e=1.0, lambda_s=1.0, lambda_g=math.nan), "lambda_g"),
        (dict(lambda_e=1.0, lambda_s="fast"), "lambda_s"),
    ],
)
def test_rates_rejects_bad_values(bad, field):
    with pytest.raises(ValueError, match=field):
        Rates(**bad)


def test_an_integer_too_large_for_a_float_is_not_a_finite_rate():
    with pytest.raises(ValueError, match="lambda_s must be finite and >= 0"):
        Rates(1.0, 10**400)
    with pytest.raises(ValueError, match="lambda_e must be finite and >= 0"):
        Rates(-(10**400), 1.0)


def test_rates_stores_a_zero_rate_as_plus_zero():
    # a -0.0 rate once printed as -0 in every value built from it
    rates = vars(Rates(1.0, -0.0, -0.0, -0.0)).values()
    assert [math.copysign(1.0, v) for v in rates] == [1.0] * 4


def test_tiers_split_a_network_into_flat_tiers():
    r = Rates(0.5, 2.0, 3.0, 1.5)
    flat = NetworkSpec.flat(7, GossipPolicy.FC_sRC, r)
    assert flat.tiers == ((GossipPolicy.FC_sRC, 2.0, 1.5, 7),)
    clustered = NetworkSpec.clustered(12, 4, GossipPolicy.DC_RC, GossipPolicy.FC_allRC, r)
    # the clusterheads never gossip, whatever lambda_g
    assert clustered.tiers == (
        (GossipPolicy.DC_RC, 2.0, 0.0, 3),
        (GossipPolicy.FC_allRC, 3.0, 1.5, 4),
    )


def test_validate_ok_single_node():
    spec = NetworkSpec.flat(1, GossipPolicy.DC_noRC, Rates(1.0, 1.0, 1.0, 1.0))
    assert validate(spec) == []


def test_validate_divisibility():
    spec = NetworkSpec.clustered(
        120, 7, GossipPolicy.DC_noRC, GossipPolicy.DC_noRC, Rates(1.0, 1.0)
    )
    assert validate(spec) == ["k must divide n, got n=120 k=7"]


def test_validate_source_tier_must_be_disconnected():
    spec = NetworkSpec.clustered(
        4, 2, GossipPolicy.FC_allRC, GossipPolicy.DC_noRC, Rates(1.0, 1.0)
    )
    problems = validate(spec)
    assert any("source_policy" in p for p in problems)


@pytest.mark.parametrize(
    "source,shown", [(GossipPolicy.FC_allRC, "FC_allRC"), ("DC_RC", "'DC_RC'"), (None, "None")]
)
def test_a_source_policy_outside_the_dc_pair_is_one_listed_violation(source, shown):
    # a source policy that is no GossipPolicy is shown by its repr
    rates = Rates(1.0, 1.0, 1.0, 1.0)
    spec = NetworkSpec.clustered(4, 2, source, GossipPolicy.DC_RC, rates)
    problem = (
        "clusterheads form a disconnected tier: source_policy must be "
        f"DC_noRC or DC_RC, got {shown}"
    )
    assert validate(spec) == [problem]
    for call in (
        lambda: require_valid(spec),
        lambda: closed_clustered(source, GossipPolicy.DC_RC, 2, 2, rates),
        lambda: clustered_freshness(spec),
        lambda: estimate_freshness_cycles(spec, 10),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "invalid network spec: " + problem


def test_validate_needs_positive_refresh_rate():
    spec = NetworkSpec.flat(3, GossipPolicy.DC_noRC, Rates(0.0, 1.0))
    assert any("lambda_e" in p for p in validate(spec))


def test_validate_flat_node_count():
    spec = NetworkSpec(Flat(0, GossipPolicy.DC_noRC), Rates(1.0, 1.0))
    assert any("n >= 1" in p for p in validate(spec))
    # one integer rule for every size: no floats, no bools
    for n in (2.5, True, "3"):
        spec = NetworkSpec.flat(n, GossipPolicy.DC_noRC, Rates(1.0, 1.0))
        assert validate(spec) == [f"n must be an integer and n >= 1, got {n!r}"]
    cl = (GossipPolicy.DC_noRC, GossipPolicy.DC_RC, Rates(1.0, 1.0))
    for k in (2.5, "2"):
        assert any("k must be an integer" in p for p in validate(NetworkSpec.clustered(4, k, *cl)))
    assert any("n must be an integer" in p for p in validate(NetworkSpec.clustered(4.0, 2, *cl)))
    with pytest.raises(ValueError, match="n must be an integer"):
        per_stale_rate(GossipPolicy.DC_RC, 1.0, 0.0, True)


#: Sizes that break the one size rule: past float64's exact integers, past
#: int64 and past uint64, and a float that holds an integer.
BAD_SIZES = [2**53 + 1, 2**63 - 1, 2**64, 3.0]


def test_a_size_is_an_integer_from_1_to_2_to_the_53():
    for good in (1, 2**53, np.int64(2**53)):
        assert size_problem("n", good) is None
    assert size_problem("n", 2**53 + 1) == "n must be at most 2**53, got 9007199254740993"
    assert size_problem("k", np.uint64(2**63)) == (
        f"k must be at most 2**53, got {np.uint64(2**63)!r}"
    )
    # the integer half is the integer rule, word for word
    for bad in (0, -3, 3.0, True, "3", None):
        assert size_problem("k", bad) == int_problem("k", bad, 1)


@pytest.mark.parametrize("bad", BAD_SIZES)
def test_validate_holds_n_and_k_to_the_size_rule(bad):
    rates = Rates(1.0, 1.0, 1.0, 1.0)
    assert validate(NetworkSpec.flat(bad, GossipPolicy.DC_RC, rates)) == [size_problem("n", bad)]
    pair = (GossipPolicy.DC_RC, GossipPolicy.FC_allRC)
    assert validate(NetworkSpec.clustered(2**53, bad, *pair, rates)) == [size_problem("k", bad)]
    # 2**53 itself passes where nothing is allocated
    assert validate(NetworkSpec.flat(2**53, GossipPolicy.DC_RC, rates)) == []
    assert validate(NetworkSpec.clustered(2**53, 2**53, *pair, rates)) == []


@pytest.mark.parametrize("policy", POLICIES)
def test_per_stale_rate_never_returns_an_empty_table(policy):
    for n in (1, 2, 7):
        assert len(per_stale_rate(policy, 1.0, 1.0, n)) == n
    # np.arange(n, dtype=float) came out empty near 2**63, so the table did
    for bad in BAD_SIZES:
        with pytest.raises(ValueError) as err:
            per_stale_rate(policy, 1.0, 1.0, bad)
        assert str(err.value) == size_problem("n", bad)


def test_a_name_keeps_the_files_named_after_it_in_their_directory():
    assert name_problem("name", "flat..sweep") is None
    for bad in ("../../escape", "a/b", "a\\b"):
        assert name_problem("name", bad) == f"name must not contain / or \\, got {bad!r}"
    for bad in ("", 3, None):
        assert name_problem("name", bad) == f"name must be a nonempty string, got {bad!r}"
    assert name_problem("name", "a\0b") == "name must not contain a NUL character, got 'a\\x00b'"


def test_a_path_is_a_string_without_a_nul():
    assert path_problem("output", "out/rows.csv") is None
    assert path_problem("output", 3) == "output must be a string path, got 3"
    message = "--report must not contain a NUL character, got 'a\\x00b'"
    assert path_problem("--report", "a\0b") == message
    assert path_problem("--output", "") == "--output must not be empty, got ''"


@pytest.mark.parametrize("num_cycles", [2**61 - 1, np.int64(2**61 - 1)])
def test_the_cycle_count_bound_is_num_cycles_times_n_at_most_int64_max(num_cycles):
    # 4 * (2**61 - 1) is 2**63 - 4 and 4 * 2**61 is 2**63; an np.int64
    # count must not wrap
    assert cycles_problem("num_cycles", num_cycles, 4) is None
    assert cycles_problem("num_cycles", (2**63 - 1) // 3, 3) is None
    assert cycles_problem("num_cycles", num_cycles + 1, 4) == (
        f"num_cycles * n must be at most 2**63 - 1, got {2**61} * 4"
    )
    assert cycles_problem("--cycles", 2**63, 1) == (
        "--cycles * n must be at most 2**63 - 1, got 9223372036854775808 * 1"
    )


def test_validate_collects_every_problem():
    spec = NetworkSpec.clustered(
        5, 2, GossipPolicy.FC_sRC, GossipPolicy.DC_noRC, Rates(0.0, 1.0)
    )
    problems = validate(spec)
    assert len(problems) >= 3  # lambda_e, divisibility, source policy


def test_every_exported_name_resolves():
    modules = [gossipfresh] + [
        importlib.import_module(f"gossipfresh.{info.name}")
        for info in pkgutil.iter_modules(gossipfresh.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
