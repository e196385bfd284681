#include "ppsim/util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "ppsim/util/check.hpp"

namespace ppsim {

namespace {

/// Renders a domain as "[2, inf)" or "(0, 1]"; a default end reads as an
/// open infinity.
template <typename T>
std::string describe(const Domain<T>& d) {
  constexpr Domain<T> whole;
  std::ostringstream os;
  if (d.lo == whole.lo) os << "(-inf"; else os << (d.lo_open ? '(' : '[') << d.lo;
  os << ", ";
  if (d.hi == whole.hi) os << "inf)"; else os << d.hi << ']';
  return os.str();
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  PPSIM_CHECK(argc >= 1, "argc must include the program name");
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    PPSIM_CHECK(arg.rfind("--", 0) == 0, "flags must start with --: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // boolean switch
    }
  }
}

template <typename T>
T Cli::parse(const std::string& name, const std::string& text, const Domain<T>& domain) {
  constexpr bool integral = std::is_integral_v<T>;
  char* end = nullptr;
  errno = 0;
  T v{};
  if constexpr (integral) v = std::strtoll(text.c_str(), &end, 10);
  else v = std::strtod(text.c_str(), &end);
  PPSIM_CHECK(!text.empty() && *end == '\0' && errno != ERANGE && domain.contains(v),
              "--" + name + (integral ? " must be an integer in " : " must be a number in ") +
                  describe(domain) + ", got '" + text + "'");
  return v;
}

template std::int64_t Cli::parse(const std::string&, const std::string&, const IntDomain&);
template double Cli::parse(const std::string&, const std::string&, const RealDomain&);

std::int64_t Cli::get_int(const std::string& name, std::int64_t default_value,
                          const IntDomain& domain) {
  known_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : parse(name, it->second, domain);
}

double Cli::get_double(const std::string& name, double default_value,
                       const RealDomain& domain) {
  known_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : parse(name, it->second, domain);
}

std::string Cli::get_string(const std::string& name, const std::string& default_value,
                            const std::vector<std::string>& choices) {
  known_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::string listed;
  for (const std::string& choice : choices) listed += (listed.empty() ? "" : ", ") + choice;
  PPSIM_CHECK(choices.empty() ||
                  std::find(choices.begin(), choices.end(), it->second) != choices.end(),
              "--" + name + " must be one of " + listed + ", got '" + it->second + "'");
  return it->second;
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

void Cli::validate_no_unknown_flags() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    PPSIM_CHECK(known_.count(name) > 0, "unknown flag --" + name);
  }
}

}  // namespace ppsim
