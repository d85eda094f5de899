"""Benchmark: regenerate Fig. 5 (λ and |M_u| sensitivity of BNS).

Shape assertions: growing the candidate set beyond |M_u| = 1 (plain RNS)
helps — the paper's strongest Fig. 5 signal — and the extreme λ = 15 is
not the optimum.

Substrate note: the paper's λ sweep peaks at λ = 5; on the synthetic
substrate the sweep is flat-to-slightly-decreasing because hard negatives
carry less value here (the same deviation seen for DNS in Table II; see
the hard-sampler deviation noted in ROADMAP.md).  The assertion is
therefore limited to "extreme hardness emphasis does not win", which both
the paper and this reproduction show.
"""

from repro.experiments.fig5 import run_fig5


def test_fig5(benchmark, scale, save_artifact):
    result = benchmark.pedantic(
        lambda: run_fig5(scale=scale, seed=0), rounds=1, iterations=1
    )
    save_artifact("fig5", result.format())

    lam = dict(result.lambda_sweep)
    size = dict(result.size_sweep)

    # λ: the largest hardness emphasis is never the best setting.
    assert max(lam.values()) > lam[15.0]

    # |Mu|: a moderate candidate set beats |Mu| = 1 (= RNS), and the sweep
    # trends upward overall.
    assert max(size[3], size[5], size[10]) > size[1]
    assert size[15] > size[1]
