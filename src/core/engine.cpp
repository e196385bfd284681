#include "ppsim/core/engine.hpp"

#include <algorithm>

#include "ppsim/util/check.hpp"

namespace ppsim {

namespace {

using EngineVariant = std::variant<Simulator, CollapsedSimulator>;

EngineVariant make_impl(EngineKind kind, const Protocol& protocol,
                        Configuration initial, std::uint64_t seed,
                        CollapsedSimulator::Options options,
                        Interactions round_divisor) {
  switch (kind) {
    case EngineKind::kSequential:
      return EngineVariant(
          std::in_place_type<Simulator>, protocol, std::move(initial), seed,
          Simulator::Engine::kTable);
    case EngineKind::kSequentialVirtual:
      return EngineVariant(
          std::in_place_type<Simulator>, protocol, std::move(initial), seed,
          Simulator::Engine::kVirtual);
    case EngineKind::kBatched:
      PPSIM_CHECK(round_divisor > 0, "round divisor must be positive");
      options.fixed_round =
          std::max<Interactions>(1, initial.population() / round_divisor);
      [[fallthrough]];
    case EngineKind::kCollapsed:
      return EngineVariant(
          std::in_place_type<CollapsedSimulator>, protocol, std::move(initial),
          seed, options);
  }
  // Reachable only through a forged enum value (e.g. a bad static_cast from
  // an untrusted flag): fail loudly instead of falling off a value-returning
  // function. check_failed is [[noreturn]], which PPSIM_CHECK's conditional
  // hides from flow analysis.
  detail::check_failed("kind is a valid EngineKind", __FILE__, __LINE__,
                       "unknown engine kind " +
                           std::to_string(static_cast<int>(kind)));
}

}  // namespace

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSequential: return "sequential";
    case EngineKind::kSequentialVirtual: return "virtual";
    case EngineKind::kBatched: return "batched";
    case EngineKind::kCollapsed: return "collapsed";
  }
  return "unknown";
}

std::optional<EngineKind> parse_engine(const std::string& name) {
  if (name == "sequential") return EngineKind::kSequential;
  if (name == "virtual") return EngineKind::kSequentialVirtual;
  if (name == "batched") return EngineKind::kBatched;
  if (name == "collapsed") return EngineKind::kCollapsed;
  return std::nullopt;
}

Engine::Engine(EngineKind kind, const Protocol& protocol, Configuration initial,
               std::uint64_t seed, CollapsedSimulator::Options options,
               Interactions round_divisor)
    : kind_(kind),
      impl_(make_impl(kind, protocol, std::move(initial), seed, options,
                      round_divisor)) {}

const Configuration& Engine::configuration() const {
  return std::visit([](const auto& e) -> const Configuration& { return e.configuration(); },
                    impl_);
}

Interactions Engine::interactions() const {
  return std::visit([](const auto& e) { return e.interactions(); }, impl_);
}

Interactions Engine::clamped_interactions() const {
  return std::visit(
      [](const auto& e) -> Interactions {
        if constexpr (requires { e.clamped_interactions(); }) {
          return e.clamped_interactions();
        } else {
          return 0;  // exact sequential engines never clamp
        }
      },
      impl_);
}

double Engine::parallel_time() const {
  return std::visit([](const auto& e) { return e.parallel_time(); }, impl_);
}

RunOutcome Engine::run_until_stable(Interactions max_interactions) {
  return std::visit([&](auto& e) { return e.run_until_stable(max_interactions); }, impl_);
}

RunOutcome Engine::run_until(
    const std::function<bool(const Configuration&, Interactions)>& predicate,
    Interactions max_interactions) {
  return std::visit([&](auto& e) { return e.run_until(predicate, max_interactions); },
                    impl_);
}

bool Engine::is_stable() const {
  return std::visit([](const auto& e) { return e.is_stable(); }, impl_);
}

std::optional<Opinion> Engine::consensus_output() const {
  return std::visit([](const auto& e) { return e.consensus_output(); }, impl_);
}

void Engine::set_recorder(Recorder* recorder) {
  std::visit([&](auto& e) { e.set_recorder(recorder); }, impl_);
}

EngineCheckpoint Engine::checkpoint_state() const {
  return std::visit([](const auto& e) { return e.checkpoint_state(); }, impl_);
}

}  // namespace ppsim
