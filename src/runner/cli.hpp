#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "schemes/factory.hpp"

namespace mci::runner {

/// Tiny argv parser for the daemons, bench and example binaries. Accepts
/// `--key=value`, `--key value` and bare `--flag` forms; unknown keys and
/// malformed numeric values are reported by rejectUnknownArgs() so a
/// binary can refuse them instead of silently running a default.
class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string getStr(const std::string& key,
                                   const std::string& fallback) const;
  /// Numeric values must be the whole token ("1e3" is not an integer,
  /// "5x" not a number). A malformed value returns `fallback` and is
  /// recorded for rejectUnknownArgs(), which reports it.
  [[nodiscard]] double getDouble(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t getInt(const std::string& key,
                                    std::int64_t fallback) const;

  /// Parses `--<key>=<name>` through schemes::parseSchemeName. Returns
  /// `fallback` when the key is absent. A present-but-invalid name prints
  /// the valid set (schemeNameList) to stderr and returns nullopt — the
  /// caller should exit nonzero rather than silently running the default
  /// scheme the user did not ask for.
  [[nodiscard]] std::optional<schemes::SchemeKind> getScheme(
      const std::string& key, schemes::SchemeKind fallback) const;

  /// Validated integer: returns `fallback` when the key is absent. A
  /// present value that is not a decimal integer, or falls outside
  /// [min, max], prints an actionable message (the offending value and the
  /// accepted range) to stderr and returns nullopt — same contract as
  /// getScheme, so `--shards banana` fails loudly instead of running a
  /// default cluster the user did not ask for.
  [[nodiscard]] std::optional<std::int64_t> getIntBounded(
      const std::string& key, std::int64_t fallback, std::int64_t min,
      std::int64_t max) const;

  /// Keys the caller never queried (call after all getX calls).
  [[nodiscard]] std::vector<std::string> unknownArgs() const;

  /// Prints each unknownArgs() key, and each malformed getInt/getDouble
  /// value, to stderr; true if any. The daemons exit 2 on it: a mistyped
  /// flag or value must not run a default nobody asked for.
  [[nodiscard]] bool rejectUnknownArgs(const char* program) const;

 private:
  struct Arg {
    std::string key;
    std::string value;
    mutable bool consumed = false;
    mutable bool malformed = false;  ///< a numeric getter could not parse it
  };
  const Arg* findArg(const std::string& key) const;
  std::vector<Arg> args_;
};

}  // namespace mci::runner
