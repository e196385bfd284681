#include "ppsim/core/engine.hpp"

#include "ppsim/util/check.hpp"

namespace ppsim {

namespace {

using EngineVariant = std::variant<Simulator, CollapsedSimulator>;

EngineVariant make_impl(EngineKind kind, const UndecidedStateDynamics& usd,
                        Configuration initial, std::uint64_t seed,
                        CollapsedSimulator::Options options) {
  switch (kind) {
    case EngineKind::kSequential:
      return EngineVariant(std::in_place_type<Simulator>, usd,
                           std::move(initial), seed);
    case EngineKind::kCollapsed:
      return EngineVariant(
          std::in_place_type<CollapsedSimulator>, usd, std::move(initial),
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
    case EngineKind::kCollapsed: return "collapsed";
  }
  return "unknown";
}

EngineKind resolve_engine(const std::string& name, Count n) {
  if (name == "auto") {
    return n > 10'000'000 ? EngineKind::kCollapsed : EngineKind::kSequential;
  }
  if (name == "sequential") return EngineKind::kSequential;
  PPSIM_CHECK(name == "collapsed", "unknown engine '" + name + "'");
  return EngineKind::kCollapsed;
}

Engine::Engine(EngineKind kind, const UndecidedStateDynamics& usd,
               Configuration initial, std::uint64_t seed,
               CollapsedSimulator::Options options)
    : kind_(kind), impl_(make_impl(kind, usd, std::move(initial), seed, options)) {}

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
          return 0;  // the exact sequential engine never clamps
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
