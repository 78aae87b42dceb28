#pragma once
// Shared scaffold of the JSON benches (bench_throughput, bench_recovery,
// bench_scale): one flag parser, one BENCH_*.json document writer and one
// wall-clock timer. Each driver keeps its own sweep, table and gates.

#include <chrono>
#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

namespace urcgc::bench {

/// The flags one driver accepts beyond the shared --json=FILE, --quick,
/// --messages=N and --seed=S. The usage line is built from this.
struct Flags {
  const char* bench = "";                // binary name, e.g. "bench_scale"
  std::int64_t messages = 0;             // --messages default
  std::vector<std::string> backends{};   // --backend= values; empty: none
  std::vector<std::string> protocols{};  // --protocol= values; empty: none
  bool soak = false;                     // accepts --soak
};

struct Options {
  std::string bench;
  std::string json_path;
  bool quick = false;
  bool soak = false;
  std::string backend = "all";
  std::string protocol = "all";
  std::int64_t messages = 0;
  std::uint64_t seed = 1;
};

/// Parses argv against `flags`. An unknown flag or a malformed value
/// (--messages not a positive integer, --seed not an unsigned integer,
/// --backend / --protocol not one of the listed values) prints the reason
/// and the usage line to stderr and exits 2 before any run starts.
Options parse(int argc, char** argv, const Flags& flags);

/// One run's fields in document order. Keys and number formats are the
/// caller's; strings are written unescaped.
class Row {
 public:
  Row& str(const char* key, const std::string& value);
  Row& boolean(const char* key, bool value);
  Row& real(const char* key, double value, int decimals);
  template <std::integral T>
  Row& integer(const char* key, T value) {
    if constexpr (std::signed_integral<T>) {
      return add(key, std::to_string(static_cast<long long>(value)));
    } else {
      return add(key, std::to_string(static_cast<unsigned long long>(value)));
    }
  }

  [[nodiscard]] const std::vector<std::string>& fields() const {
    return fields_;
  }

 private:
  Row& add(const char* key, const std::string& value);
  std::vector<std::string> fields_;
};

/// Writes the BENCH_*.json document to options.json_path: the header
/// (schema_version, bench, generated_at, quick, messages_per_run, seed)
/// and one object per row under "runs". Exits 1 if the file cannot be
/// opened.
void write_json(const Options& options, const std::vector<Row>& rows);

template <typename Result, typename ToRow>
void write_json(const Options& options, const std::vector<Result>& results,
                ToRow to_row) {
  std::vector<Row> rows;
  rows.reserve(results.size());
  for (const Result& r : results) rows.push_back(to_row(r));
  write_json(options, rows);
}

/// Runs body() and stamps the wall-clock seconds it took into the
/// returned result's `wall_seconds`.
template <typename Fn>
auto timed(Fn&& body) {
  const auto start = std::chrono::steady_clock::now();
  auto result = body();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace urcgc::bench
