"""Closeness and identity testing for bounded in-degree Bayes nets.

Builds random nets over {0,1}^8, certifies a far pair by exact joint TV,
runs the subset-sweep tester both ways, and verifies the exact structural
identities (projection KL, telescoping) that back its analysis.
"""

import numpy as np

from enttest.bayesnet import (
    BnSampler,
    bn_closeness_test,
    bn_exact_joint,
    bn_identity_test,
    bn_kl_to_projection,
    bn_mixture_weight,
    local_kl_telescoping,
    make_far_net_pair,
    random_bayesnet,
)

rng = np.random.default_rng(1)
n, d, eps = 8, 2, 0.3


def drawn(v, streams):
    # the first trace record notes the nominal multiset m per stream and the
    # k vote blocks; the sweep stops drawing blocks once its votes are
    # settled, so it draws about half of the nominal samples
    m, k = v.trace[0].statistic, v.trace[0].threshold
    return f"{v.samples_used:,} of {streams * m:,.0f} nominal samples in {k:.0f} blocks"


# Identical nets should accept.
net = random_bayesnet(n, d, rng)
v = bn_closeness_test(BnSampler(net, 1), BnSampler(net, 2), n, d, eps, rng=3)
print(f"identical nets: {v.decision} ({drawn(v, 2)}, "
      f"{sum(1 for record in v.trace if record.name == 'bn-sweep')} sweep record)")

# A certified far pair: one CPT perturbed until the exact joint TV
# clears the promise.
base, far, tv = make_far_net_pair(n, d, eps, rng)
print(f"\ncertified far pair: exact d_TV = {tv:.4f} >= {eps}")
v = bn_closeness_test(BnSampler(base, 4), BnSampler(far, 5), n, d, eps, rng=6)
print(f"far verdict: {v.decision} at {v.fired_stage!r} ({drawn(v, 2)})")

# Identity variant: the reference side is computed exactly.
v = bn_identity_test(BnSampler(base, 7), base, n, d, eps, rng=8)
print(f"\nidentity (matching stream): {v.decision} ({drawn(v, 1)})")
v = bn_identity_test(BnSampler(far, 9), base, n, d, eps, rng=10)
print(f"identity (perturbed stream): {v.decision} at {v.fired_stage!r} ({drawn(v, 1)})")

# Exact structure oracles: KL to a projection vanishes iff the
# distribution is Markov w.r.t. the structure, and the local-KL
# telescoping identity holds to machine precision.
g = random_bayesnet(n, d, rng)
print(f"\nKL(p || p_G) onto its own DAG: {bn_kl_to_projection(base, base):.2e}")
print(f"KL(p || p_G) onto a random DAG: {bn_kl_to_projection(base, g):.4f}")

w = bn_mixture_weight(n, d, eps)
pj = (1 - w) * bn_exact_joint(base) + w / 2**n
qj = (1 - w) * bn_exact_joint(far) + w / 2**n
lhs, rhs = local_kl_telescoping(pj, qj, g)
print(f"telescoping identity: lhs {lhs:.12f} = rhs {rhs:.12f} "
      f"(diff {abs(lhs - rhs):.2e})")
