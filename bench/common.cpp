#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace urcgc::bench {
namespace {

constexpr int kSchemaVersion = 1;

std::string alternatives(const std::vector<std::string>& values) {
  std::string out;
  for (const std::string& v : values) out += (out.empty() ? "" : "|") + v;
  return out;
}

std::string usage(const Flags& flags) {
  std::string line = "usage: " + std::string(flags.bench) +
                     " [--json=FILE] [--quick]";
  if (flags.soak) line += " [--soak]";
  if (!flags.backends.empty()) {
    line += " [--backend=" + alternatives(flags.backends) + "]";
  }
  if (!flags.protocols.empty()) {
    line += " [--protocol=" + alternatives(flags.protocols) + "]";
  }
  return line + " [--messages=N] [--seed=S]";
}

[[noreturn]] void reject(const Flags& flags, const std::string& why) {
  std::fprintf(stderr, "%s\n%s\n", why.c_str(), usage(flags).c_str());
  std::exit(2);
}

/// Whole-string decimal parse: no sign on unsigned types, no whitespace,
/// no trailing characters, no overflow.
template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Options parse(int argc, char** argv, const Flags& flags) {
  Options options;
  options.bench = flags.bench;
  options.messages = flags.messages;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    const auto pick = [&](const std::vector<std::string>& allowed,
                          const char* v, std::string& out) {
      if (std::find(allowed.begin(), allowed.end(), v) == allowed.end()) {
        reject(flags, "bad value in " + arg + " (expected one of " +
                          alternatives(allowed) + ")");
      }
      out = v;
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (flags.soak && arg == "--soak") {
      options.soak = true;
    } else if (const char* v = value("--json=")) {
      options.json_path = v;
    } else if (const char* b = value("--backend=");
               b != nullptr && !flags.backends.empty()) {
      pick(flags.backends, b, options.backend);
    } else if (const char* p = value("--protocol=");
               p != nullptr && !flags.protocols.empty()) {
      pick(flags.protocols, p, options.protocol);
    } else if (const char* m = value("--messages=")) {
      if (!parse_number(m, options.messages) || options.messages <= 0) {
        reject(flags, "bad value in " + arg + " (expected a positive integer)");
      }
    } else if (const char* s = value("--seed=")) {
      if (!parse_number(s, options.seed)) {
        reject(flags,
               "bad value in " + arg + " (expected an unsigned integer)");
      }
    } else {
      reject(flags, "unknown argument " + arg);
    }
  }
  return options;
}

Row& Row::add(const char* key, const std::string& value) {
  fields_.push_back("\"" + std::string(key) + "\": " + value);
  return *this;
}

Row& Row::str(const char* key, const std::string& value) {
  return add(key, "\"" + value + "\"");
}

Row& Row::boolean(const char* key, bool value) {
  return add(key, value ? "true" : "false");
}

Row& Row::real(const char* key, double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return add(key, buf);
}

void write_json(const Options& options, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(options.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 options.json_path.c_str());
    std::exit(1);
  }
  char date[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": %d,\n", kSchemaVersion);
  std::fprintf(f, "  \"bench\": \"%s\",\n", options.bench.c_str());
  std::fprintf(f, "  \"generated_at\": \"%s\",\n", date);
  std::fprintf(f, "  \"quick\": %s,\n", options.quick ? "true" : "false");
  std::fprintf(f, "  \"messages_per_run\": %lld,\n",
               static_cast<long long>(options.messages));
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(options.seed));
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::vector<std::string>& fields = rows[i].fields();
    std::fprintf(f, "    {\n");
    for (std::size_t j = 0; j < fields.size(); ++j) {
      std::fprintf(f, "      %s%s\n", fields[j].c_str(),
                   j + 1 < fields.size() ? "," : "");
    }
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu runs)\n", options.json_path.c_str(),
              rows.size());
}

}  // namespace urcgc::bench
