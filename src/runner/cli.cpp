#include "runner/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace mci::runner {
namespace {

/// The whole token as a decimal integer; nullopt for anything else
/// ("", "1e3", "3x", "banana", out of range).
std::optional<std::int64_t> parseInt(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

/// The whole token as a finite number; nullopt for anything else.
std::optional<double> parseDouble(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view tok(argv[i]);
    if (!tok.starts_with("--")) continue;
    tok.remove_prefix(2);
    const std::size_t eq = tok.find('=');
    Arg arg;
    if (eq != std::string_view::npos) {
      arg.key = std::string(tok.substr(0, eq));
      arg.value = std::string(tok.substr(eq + 1));
    } else {
      arg.key = std::string(tok);
      // `--key value` form: consume the next token when it is not a flag.
      if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        arg.value = argv[++i];
      }
    }
    args_.push_back(std::move(arg));
  }
}

const Cli::Arg* Cli::findArg(const std::string& key) const {
  for (const Arg& a : args_) {
    if (a.key == key) {
      a.consumed = true;
      return &a;
    }
  }
  return nullptr;
}

bool Cli::has(const std::string& key) const { return findArg(key) != nullptr; }

std::string Cli::getStr(const std::string& key,
                        const std::string& fallback) const {
  const Arg* a = findArg(key);
  return a == nullptr ? fallback : a->value;
}

double Cli::getDouble(const std::string& key, double fallback) const {
  const Arg* a = findArg(key);
  if (a == nullptr) return fallback;
  const std::optional<double> v = parseDouble(a->value);
  a->malformed = !v;
  return v.value_or(fallback);
}

std::int64_t Cli::getInt(const std::string& key, std::int64_t fallback) const {
  const Arg* a = findArg(key);
  if (a == nullptr) return fallback;
  const std::optional<std::int64_t> v = parseInt(a->value);
  a->malformed = !v;
  return v.value_or(fallback);
}

std::optional<schemes::SchemeKind> Cli::getScheme(
    const std::string& key, schemes::SchemeKind fallback) const {
  const Arg* a = findArg(key);
  if (a == nullptr) return fallback;
  // Non-const so the return moves (performance-no-automatic-move).
  std::optional<schemes::SchemeKind> parsed =
      schemes::parseSchemeName(a->value);
  if (!parsed) {
    std::fprintf(stderr, "unknown --%s value '%s'; valid schemes: %s\n",
                 key.c_str(), a->value.c_str(),
                 schemes::schemeNameList().c_str());
  }
  return parsed;
}

std::optional<std::int64_t> Cli::getIntBounded(const std::string& key,
                                               std::int64_t fallback,
                                               std::int64_t min,
                                               std::int64_t max) const {
  const Arg* a = findArg(key);
  if (a == nullptr) return fallback;
  const std::optional<std::int64_t> parsed = parseInt(a->value);
  if (!parsed) {
    std::fprintf(stderr,
                 "bad --%s value '%s': expected an integer in [%lld, %lld]\n",
                 key.c_str(), a->value.c_str(), static_cast<long long>(min),
                 static_cast<long long>(max));
    return std::nullopt;
  }
  if (*parsed < min || *parsed > max) {
    std::fprintf(stderr,
                 "out-of-range --%s value %lld: expected [%lld, %lld]\n",
                 key.c_str(), static_cast<long long>(*parsed),
                 static_cast<long long>(min), static_cast<long long>(max));
    return std::nullopt;
  }
  return parsed;
}

std::vector<std::string> Cli::unknownArgs() const {
  std::vector<std::string> out;
  for (const Arg& a : args_) {
    if (!a.consumed) out.push_back(a.key);
  }
  return out;
}

bool Cli::rejectUnknownArgs(const char* program) const {
  bool rejected = false;
  for (const Arg& a : args_) {
    if (!a.consumed) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", program, a.key.c_str());
      rejected = true;
    } else if (a.malformed) {
      std::fprintf(stderr, "%s: bad value for --%s: '%s'\n", program,
                   a.key.c_str(), a.value.c_str());
      rejected = true;
    }
  }
  return rejected;
}

}  // namespace mci::runner
