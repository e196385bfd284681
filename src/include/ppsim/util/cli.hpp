// Minimal command-line flag parser for the bench and example binaries.
// Supports --name value and --name=value forms; a bare --name reads "true".
// Unknown flags are an error (typos in experiment parameters must not pass
// silently). Every bench prints its resolved parameters so recorded outputs
// are self-describing. A numeric flag declares its domain where it is read.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace ppsim {

/// The values a numeric flag accepts: lo..hi, both closed unless lo is
/// marked open. The default is the type's whole finite range, so a double
/// domain admits an infinity only as an infinite bound, and NaN never.
template <typename T>
struct Domain {
  T lo = std::numeric_limits<T>::lowest();
  T hi = std::numeric_limits<T>::max();
  bool lo_open = false;

  bool contains(T v) const { return (lo_open ? v > lo : v >= lo) && v <= hi; }
};

using IntDomain = Domain<std::int64_t>;
using RealDomain = Domain<double>;

class Cli {
 public:
  /// Parses argv; throws CheckFailure on malformed input.
  Cli(int argc, const char* const* argv);

  /// Typed getters with defaults. Each call registers the flag as known;
  /// call them all before validate_no_unknown_flags(). A given value that
  /// is empty, has trailing garbage, overflows or lies outside `domain`
  /// (or is not one of a non-empty `choices`) throws naming the flag.
  std::int64_t get_int(const std::string& name, std::int64_t default_value,
                       const IntDomain& domain = {});
  double get_double(const std::string& name, double default_value,
                    const RealDomain& domain = {});
  std::string get_string(const std::string& name, const std::string& default_value,
                         const std::vector<std::string>& choices = {});

  /// The parser behind get_int/get_double (T = std::int64_t or double), for
  /// a partly numeric flag value (`--trials auto:0.05`, `--bias auto|N`).
  template <typename T>
  static T parse(const std::string& name, const std::string& text, const Domain<T>& domain);

  /// True if the flag was present on the command line.
  bool has(const std::string& name) const;

  /// Throws if the command line contained flags never requested by getters.
  void validate_no_unknown_flags() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> known_;
};

}  // namespace ppsim
