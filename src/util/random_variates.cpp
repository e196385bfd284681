#include "ppsim/util/random_variates.hpp"

#include <cmath>

#include "binomial_sampler.hpp"
#include "ppsim/util/check.hpp"

namespace ppsim {

std::int64_t binomial(Xoshiro256pp& rng, std::int64_t trials, double p) {
  PPSIM_CHECK(trials >= 0, "binomial trials must be non-negative");
  PPSIM_CHECK(!std::isnan(p), "binomial p must not be NaN");
  detail::BinomialPlan plan;
  std::int64_t draw = 0;
  if (!plan.init(trials, p, draw)) return draw;
  if (!plan.use_btrs) {
    return plan.value(
        detail::binomial_inversion(plan.n, plan.p, detail::uniform52(rng())));
  }
  for (;;) {
    const double u = detail::uniform52(rng());
    const double v = detail::uniform52(rng());
    if (plan.btrs.attempt(u, v, draw)) return plan.value(draw);
  }
}

void multinomial_into(Xoshiro256pp& rng, std::int64_t trials,
                      const std::vector<double>& weights,
                      std::vector<std::int64_t>& out) {
  PPSIM_CHECK(trials >= 0, "multinomial trials must be non-negative");
  double total = 0.0;
  for (const double w : weights) {
    PPSIM_CHECK(w >= 0.0, "multinomial weights must be non-negative");
    total += w;
  }
  PPSIM_CHECK(trials == 0 || total > 0.0,
              "multinomial needs positive total weight to place trials");

  out.assign(weights.size(), 0);
  std::int64_t remaining = trials;
  double mass = total;
  for (std::size_t i = 0; i + 1 < weights.size() && remaining > 0; ++i) {
    // Conditional law of bucket i given what earlier buckets consumed is
    // Binomial(remaining, w_i / remaining-mass); this chain is exact.
    const double p = mass > 0.0 ? weights[i] / mass : 0.0;
    const std::int64_t draw = binomial(rng, remaining, p);
    out[i] = draw;
    remaining -= draw;
    mass -= weights[i];
  }
  if (!weights.empty()) out.back() += remaining;
}

std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<double>& weights) {
  std::vector<std::int64_t> out;
  multinomial_into(rng, trials, weights, out);
  return out;
}

std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<std::int64_t>& weights) {
  std::vector<double> w(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    PPSIM_CHECK(weights[i] >= 0, "multinomial weights must be non-negative");
    w[i] = static_cast<double>(weights[i]);
  }
  return multinomial(rng, trials, w);
}

}  // namespace ppsim
