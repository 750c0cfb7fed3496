// The scaffolding every bench binary shares: a flag table, PASS/FAIL checks
// that set the exit status, a JSON report writer, and the helpers that more
// than one campaign needs (order statistics, data patterns, counter
// aggregation, the evidence checklist, socket and blkio-stack plumbing).
//
// Header-only, so build/bench/ holds nothing but bench executables.  A
// helper that needs a component library (Exchange needs oskit_http,
// ApplyStack needs oskit_aio) is only linked into the benches that call it.

#ifndef OSKIT_BENCH_HARNESS_H_
#define OSKIT_BENCH_HARNESS_H_

#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/aio/stack.h"
#include "src/base/panic.h"
#include "src/com/netselector.h"
#include "src/com/socket.h"
#include "src/diskpart/diskpart.h"
#include "src/fs/cache.h"
#include "src/http/http.h"
#include "src/trace/trace.h"

namespace oskit::bench {

// ---------------------------------------------------------------------------
// Flags: `--name value` options plus one optional bare count.
// ---------------------------------------------------------------------------

class Flags {
 public:
  explicit Flags(const char* program) : program_(program) {}

  // `--name value`.  Integers take any strtoull base-0 spelling ("0x51").
  template <typename T>
  Flags& Add(const char* name, T* out, const char* meta = "N") {
    flags_.push_back(
        {name, meta, [out](const char* text) { return ParseValue(text, out); }});
    return *this;
  }

  // The optional bare number, e.g. the block count of `napi_rx 2048`.
  template <typename T>
  Flags& Count(T* out, const char* meta) {
    count_ = {nullptr, meta,
              [out](const char* text) { return ParseValue(text, out); }};
    return *this;
  }

  std::string Usage() const {
    std::string usage = std::string("usage: ") + program_;
    if (count_.set) {
      usage += std::string(" [") + count_.meta + "]";
    }
    for (const Flag& flag : flags_) {
      usage += std::string(" [") + flag.name + " " + flag.meta + "]";
    }
    return usage;
  }

  // False, with the reason in *error, on an unknown flag, a missing or
  // malformed value, or a bare word the table has no count for.
  bool Parse(int argc, const char* const* argv, std::string* error) const {
    bool counted = false;
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (arg.substr(0, 2) == "--") {
        const Flag* flag = Find(arg);
        if (flag == nullptr) {
          *error = "unknown flag " + std::string(arg);
          return false;
        }
        if (i + 1 >= argc) {
          *error = "missing value for " + std::string(arg);
          return false;
        }
        if (!flag->set(argv[++i])) {
          *error = "bad value for " + std::string(arg) + ": " + argv[i];
          return false;
        }
      } else if (count_.set && !counted) {
        if (!count_.set(argv[i])) {
          *error = "bad " + std::string(count_.meta) + ": " + argv[i];
          return false;
        }
        counted = true;
      } else {
        *error = "unexpected argument " + std::string(arg);
        return false;
      }
    }
    return true;
  }

  // Parses, or prints the reason and the usage line to stderr and exits 2.
  void ParseOrExit(int argc, char** argv) const {
    std::string error;
    if (!Parse(argc, argv, &error)) {
      std::fprintf(stderr, "%s: %s\n%s\n", program_, error.c_str(),
                   Usage().c_str());
      std::exit(2);
    }
  }

 private:
  struct Flag {
    const char* name;
    const char* meta;
    std::function<bool(const char*)> set;
  };

  const Flag* Find(std::string_view name) const {
    for (const Flag& flag : flags_) {
      if (name == flag.name) {
        return &flag;
      }
    }
    return nullptr;
  }

  static bool ParseValue(const char* text, const char** out) {
    *out = text;
    return true;
  }

  static bool ParseValue(const char* text, std::string* out) {
    *out = text;
    return true;
  }

  template <typename T>
  static bool ParseValue(const char* text, T* out) {
    static_assert(std::is_integral_v<T>, "flag values are integers or text");
    char* end = nullptr;
    errno = 0;
    if constexpr (std::is_signed_v<T>) {
      long long value = std::strtoll(text, &end, 0);
      if (value < std::numeric_limits<T>::min() ||
          value > std::numeric_limits<T>::max()) {
        return false;
      }
      *out = static_cast<T>(value);
    } else {
      if (std::strchr(text, '-') != nullptr) {
        return false;
      }
      unsigned long long value = std::strtoull(text, &end, 0);
      if (value > std::numeric_limits<T>::max()) {
        return false;
      }
      *out = static_cast<T>(value);
    }
    return errno == 0 && end != text && *end == '\0';
  }

  const char* program_;
  std::vector<Flag> flags_;
  Flag count_{};
};

// ---------------------------------------------------------------------------
// Checks.  Every FAIL line is what bench/run_all.sh greps for; it also sets
// the process exit status returned by ExitCode() and Finish().
// ---------------------------------------------------------------------------

inline int g_failures = 0;

inline int Failures() { return g_failures; }
inline int ExitCode() { return g_failures == 0 ? 0 : 1; }

// Prints "FAIL: <message>" and marks the run failed.
__attribute__((format(printf, 1, 2))) inline void Fail(const char* format,
                                                       ...) {
  std::fputs("FAIL: ", stdout);
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
  ++g_failures;
}

// Prints "<message>  PASS" or "<message>  FAIL"; a FAIL marks the run failed.
__attribute__((format(printf, 2, 3))) inline bool Check(bool ok,
                                                        const char* format,
                                                        ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("  %s\n", ok ? "PASS" : "FAIL");
  if (!ok) {
    ++g_failures;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Report: a JSON document built field by field.  Objects lay out one field
// per line (kLines) or all on one line (kInline); arrays put one element per
// line.  Doubles print with an explicit precision, so a report reads the
// same run after run.
// ---------------------------------------------------------------------------

class Report {
 public:
  enum class Layout { kLines, kInline };

  Report() : out_("{"), levels_{{Layout::kLines, '}', true}} {}

  // Opens an object: a field of the enclosing object, or (key == nullptr)
  // an element of the enclosing array.
  Report& Object(const char* key = nullptr, Layout layout = Layout::kLines) {
    return Open(key, '{', '}', layout);
  }
  Report& Array(const char* key) { return Open(key, '[', ']', Layout::kLines); }

  Report& End() {
    OSKIT_ASSERT(levels_.size() > 1);
    Level level = levels_.back();
    levels_.pop_back();
    if (level.layout == Layout::kLines) {
      out_ += '\n';
      out_.append(2 * levels_.size(), ' ');
    }
    out_ += level.close;
    return *this;
  }

  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Report& Field(const std::string& key, T value) {
    return Raw(key, std::to_string(value));
  }
  // A double always states its printed precision.
  Report& Field(const std::string& key, double value) = delete;
  Report& Field(const std::string& key, double value, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return Raw(key, buf);
  }
  Report& Field(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Report& Field(const std::string& key, const char* value) {
    return Raw(key, Quote(value));
  }

  // The finished document; every Object/Array must have been ended.
  std::string Text() const {
    OSKIT_ASSERT(levels_.size() == 1);
    return out_ + "\n}\n";
  }

  // Writes Text() to `path`.  A failed open, write or close prints the
  // reason to stderr and returns false.
  bool Write(const char* path) const {
    std::string text = Text();
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s: %s\n", path,
                   std::strerror(errno));
      return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    bool ok = std::ferror(f) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
      std::fprintf(stderr, "cannot write %s: %s\n", path,
                   std::strerror(errno));
    }
    return ok;
  }

 private:
  struct Level {
    Layout layout;
    char close;
    bool empty;
  };

  static std::string Quote(std::string_view text) {
    std::string quoted = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += c;
    }
    return quoted + "\"";
  }

  // Separator and indentation before the next member, then its key.
  void Member(const char* key) {
    Level& level = levels_.back();
    if (level.layout == Layout::kLines) {
      out_ += level.empty ? "\n" : ",\n";
      out_.append(2 * levels_.size(), ' ');
    } else if (!level.empty) {
      out_ += ", ";
    }
    level.empty = false;
    if (key != nullptr) {
      out_ += Quote(key) + ": ";
    }
  }

  Report& Open(const char* key, char open, char close, Layout layout) {
    Member(key);
    out_ += open;
    levels_.push_back({layout, close, true});
    return *this;
  }

  Report& Raw(const std::string& key, const std::string& value) {
    Member(key.c_str());
    out_ += value;
    return *this;
  }

  std::string out_;
  std::vector<Level> levels_;
};

// Writes `report` to `path` (when one was given) and returns the exit
// status: 0 if every check passed, 1 if any failed, 2 if the report could
// not be written.
inline int Finish(const Report& report, const char* path) {
  if (path != nullptr) {
    if (!report.Write(path)) {
      return 2;
    }
    std::printf("\nwrote %s\n", path);
  }
  return ExitCode();
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

// The sample at rank floor(p * (n - 1)) of an ascending vector; 0 if empty.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  return sorted[static_cast<size_t>(p * (sorted.size() - 1))];
}

// Deterministic payload byte `i` of the stream named by `salt`.
inline uint8_t PatternByte(uint64_t salt, size_t i) {
  return static_cast<uint8_t>(salt * 131 + i * 29 + (i >> 9));
}

// Counter totals summed over a campaign's runs.
using Aggregate = std::map<std::string, uint64_t>;

// Adds every counter of `snap` to `agg`, except those named `skip_prefix`*.
inline void MergeSnapshot(const trace::CounterSnapshot& snap, Aggregate* agg,
                          std::string_view skip_prefix = {}) {
  for (const auto& [name, value] : snap) {
    if (!skip_prefix.empty() && name.starts_with(skip_prefix)) {
      continue;
    }
    (*agg)[name] += value;
  }
}

// One row of a campaign's evidence checklist: the counters in `any_of`
// must sum to nonzero across the sweep.
struct Requirement {
  const char* what;
  std::vector<const char*> any_of;
};

// Prints one row per requirement (`what` padded to `width`) and a FAIL for
// each one without evidence.
inline void CheckEvidence(const Aggregate& agg,
                          const std::vector<Requirement>& required,
                          int width) {
  for (const Requirement& req : required) {
    uint64_t sum = 0;
    for (const char* name : req.any_of) {
      auto it = agg.find(name);
      if (it != agg.end()) {
        sum += it->second;
      }
    }
    std::printf("  %-*s %12llu %s\n", width, req.what,
                static_cast<unsigned long long>(sum),
                sum != 0 ? "ok" : "MISSING");
    if (sum == 0) {
      Fail("aggregate: no evidence that %s", req.what);
    }
  }
}

// The socket's SocketExt (caller releases), or nullptr.
inline SocketExt* QueryExt(Socket* s) {
  void* extp = nullptr;
  if (!Ok(s->Query(SocketExt::kIid, &extp))) {
    return nullptr;
  }
  return static_cast<SocketExt*>(extp);
}

// Blocking HTTP request helper: sends `wire`, then appends `expected` more
// parsed responses to *out.  Returns false (instead of asserting) so
// callers can count failures.
inline bool Exchange(Socket* sock, const std::string& wire, size_t expected,
                     std::vector<http::Response>* out) {
  size_t n = 0;
  if (!Ok(sock->Send(wire.data(), wire.size(), &n)) || n != wire.size()) {
    return false;
  }
  const size_t target = out->size() + expected;
  http::ResponseParser parser;
  char buf[4096];
  while (out->size() < target) {
    Error err = sock->Recv(buf, sizeof(buf), &n);
    if (!Ok(err) || n == 0) {
      return false;
    }
    if (parser.Feed(buf, n) == http::ParseStatus::kError) {
      return false;
    }
    while (parser.HasResponse()) {
      out->push_back(parser.TakeResponse());
    }
  }
  return true;
}

// Builds a blkio layer composition over `base` from a bottom-up spec such
// as "stripe,checksum,cache" (cache on top); "" is `base` itself.  The
// stripe layer splits the SAME device into two partition-view members, so
// a power cut stays atomic across both stripes.  An unknown layer exits 2.
inline ComPtr<BlkIo> ApplyStack(ComPtr<BlkIo> base, const std::string& spec,
                                trace::TraceEnv* tenv) {
  ComPtr<BlkIo> top = std::move(base);
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    size_t end = comma == std::string::npos ? spec.size() : comma;
    std::string layer = spec.substr(pos, end - pos);
    pos = end + 1;
    if (layer == "stripe") {
      off_t64 size = 0;
      top->GetSize(&size);
      uint64_t half = (size / 512) / 2;
      Partition lo{.start_sector = 0, .sector_count = half};
      Partition hi{.start_sector = half, .sector_count = half};
      std::vector<ComPtr<BlkIo>> members;
      members.push_back(MakePartitionView(top.get(), lo));
      members.push_back(MakePartitionView(top.get(), hi));
      // Unit = 2048 rounded up to the member block size (a cache layer
      // below the stripe presents 4 KiB blocks).
      uint32_t bs = members[0]->GetBlockSize();
      uint32_t unit = (2048 + bs - 1) / bs * bs;
      top = ComPtr<BlkIo>::FromQuery(
          aio::StripeBlkIo::Create(std::move(members), unit, tenv).get());
    } else if (layer == "checksum") {
      top = ComPtr<BlkIo>::FromQuery(
          aio::ChecksumBlkIo::Create(top.get(), tenv).get());
    } else if (layer == "cache") {
      top = ComPtr<BlkIo>::FromQuery(
          fs::CacheBlkIo::Create(top.get(), 4096, 64, tenv).get());
    } else {
      std::fprintf(stderr, "unknown stack layer: %s\n", layer.c_str());
      std::exit(2);
    }
  }
  return top;
}

}  // namespace oskit::bench

#endif  // OSKIT_BENCH_HARNESS_H_
