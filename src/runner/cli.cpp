#include "runner/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace mci::runner {

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
  return (a == nullptr || a->value.empty()) ? fallback
                                            : std::strtod(a->value.c_str(), nullptr);
}

std::int64_t Cli::getInt(const std::string& key, std::int64_t fallback) const {
  const Arg* a = findArg(key);
  return (a == nullptr || a->value.empty())
             ? fallback
             : std::strtoll(a->value.c_str(), nullptr, 10);
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
  char* end = nullptr;
  const char* s = a->value.c_str();
  const long long parsed = std::strtoll(s, &end, 10);
  if (a->value.empty() || end == s || *end != '\0') {
    std::fprintf(stderr,
                 "bad --%s value '%s': expected an integer in [%lld, %lld]\n",
                 key.c_str(), a->value.c_str(), static_cast<long long>(min),
                 static_cast<long long>(max));
    return std::nullopt;
  }
  if (parsed < min || parsed > max) {
    std::fprintf(stderr,
                 "out-of-range --%s value %lld: expected [%lld, %lld]\n",
                 key.c_str(), parsed, static_cast<long long>(min),
                 static_cast<long long>(max));
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
  const std::vector<std::string> unknown = unknownArgs();
  for (const std::string& key : unknown) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", program, key.c_str());
  }
  return !unknown.empty();
}

}  // namespace mci::runner
