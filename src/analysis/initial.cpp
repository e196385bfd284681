#include "ppsim/analysis/initial.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ppsim/util/check.hpp"
#include "ppsim/util/random_variates.hpp"

namespace ppsim {

Count InitialConfig::population() const {
  return std::accumulate(opinion_counts.begin(), opinion_counts.end(), Count{0});
}

InitialConfig adversarial_configuration(Count n, std::size_t k, Count requested_bias) {
  PPSIM_CHECK(k >= 1, "need at least one opinion");
  PPSIM_CHECK(n >= static_cast<Count>(k), "need at least one agent per opinion");
  PPSIM_CHECK(requested_bias >= 0, "bias must be non-negative");

  if (k == 1) {
    return InitialConfig{{n}, 0};
  }

  // Minority level m = floor((n - bias) / k) >= 1; the majority absorbs the
  // remainder, so the realised bias is n - k·m in [bias, bias + k).
  PPSIM_CHECK(requested_bias <= n - static_cast<Count>(k),
              "bias leaves no room for the minorities");
  const Count m = (n - requested_bias) / static_cast<Count>(k);
  const Count majority = n - static_cast<Count>(k - 1) * m;

  InitialConfig config;
  config.opinion_counts.assign(k, m);
  config.opinion_counts[0] = majority;
  config.bias = majority - m;
  PPSIM_CHECK(config.bias >= requested_bias, "internal: realised bias too small");
  PPSIM_CHECK(config.bias < requested_bias + static_cast<Count>(k),
              "internal: realised bias too large");
  return config;
}

InitialConfig figure1_configuration(Count n, std::size_t k) {
  PPSIM_CHECK(n >= 2, "population must have at least two agents");
  const auto bias = static_cast<Count>(
      std::ceil(std::sqrt(static_cast<double>(n) * std::log(static_cast<double>(n)))));
  return adversarial_configuration(n, k, bias);
}

InitialConfig balanced_configuration(Count n, std::size_t k) {
  PPSIM_CHECK(k >= 1, "need at least one opinion");
  PPSIM_CHECK(n >= static_cast<Count>(k), "need at least one agent per opinion");
  InitialConfig config;
  const Count base = n / static_cast<Count>(k);
  Count remainder = n % static_cast<Count>(k);
  config.opinion_counts.assign(k, base);
  for (std::size_t i = 0; i < k && remainder > 0; ++i, --remainder) {
    ++config.opinion_counts[i];
  }
  config.bias = config.opinion_counts[0] - config.opinion_counts.back();
  return config;
}

InitialConfig two_party_configuration(Count n, Count majority_count) {
  PPSIM_CHECK(n >= 2, "population must have at least two agents");
  PPSIM_CHECK(majority_count >= 0 && majority_count <= n,
              "majority count must be within the population");
  PPSIM_CHECK(2 * majority_count >= n,
              "opinion 0 must hold at least half the population");
  InitialConfig config;
  config.opinion_counts = {majority_count, n - majority_count};
  config.bias = 2 * majority_count - n;
  return config;
}

InitialConfig random_configuration(Count n, std::size_t k, Xoshiro256pp& rng) {
  PPSIM_CHECK(k >= 1, "need at least one opinion");
  PPSIM_CHECK(n >= static_cast<Count>(k), "need at least one agent per opinion");
  const std::vector<std::int64_t> weights(k, 1);
  std::vector<Count> counts = multinomial(rng, n, weights);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  InitialConfig config;
  config.bias = counts.size() > 1 ? counts[0] - counts[1] : 0;
  config.opinion_counts = std::move(counts);
  return config;
}

}  // namespace ppsim
