// pmg_bench: one run of one benchmark workload.
//
//   pmg_bench --workload <pr-rmat-pmm|web-migrate-observed> [--seed N]
//             [--seconds S] [--trace 0|1] [--spans <path>]
//
// Prints a human-readable table of every figure to stderr and, as the last
// line of stdout, one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run also writes its spans to --spans when given.
// Exit code 2 on bad arguments.

#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "pmg/trace/json.h"

namespace pmg::perfbench {

std::string Spans::ToJson() const {
  // Children of one parent never overlap (spans nest), so a span's self
  // time is its duration minus the sum of its children's durations.
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, uint64_t> self_by_name;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  trace::JsonWriter w;
  w.BeginObject();
  w.Key("spans").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t self = s.end_ns - s.start_ns - child_ns[i];
    self_by_name[s.name] += self;
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("start_ns").UInt(s.start_ns - t0);
    w.Key("end_ns").UInt(s.end_ns - t0);
    w.Key("parent").Int(s.parent);
    w.Key("op").UInt(s.op);
    w.Key("self_ns").UInt(self);
    w.EndObject();
  }
  w.EndArray();
  w.Key("self_ns_by_name").BeginObject();
  for (const auto& [name, ns] : self_by_name) w.Key(name).UInt(ns);
  w.EndObject();
  w.EndObject();
  return w.str();
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

namespace {

volatile uint64_t probe_sink = 0;

/// Fixed-work host calibration: integer mixing plus a dependent random
/// walk over a 32 MiB ring, so both core speed and memory-system
/// contention show.
double ProbeSeconds() {
  constexpr uint32_t kRing = 8u << 20;  // uint32_t slots
  std::vector<uint32_t> next(kRing);
  // Sattolo's shuffle: one cycle through every slot.
  for (uint32_t i = 0; i < kRing; ++i) next[i] = i;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = kRing - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  hostperf::WallTimer t;
  for (uint32_t i = 0; i < 30'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  uint32_t at = 0;
  for (uint32_t i = 0; i < 500'000; ++i) at = next[at];
  const double seconds = t.Seconds();
  probe_sink = x + at;
  return seconds;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "pmg_bench: %s\n"
               "usage: pmg_bench --workload <pr-rmat-pmm|web-migrate-observed> "
               "[--seed N] [--seconds S] [--trace 0|1] [--spans <path>]\n",
               why);
  std::exit(2);
}

struct Workload {
  const char* name;
  uint64_t default_seed;
  void (*run)(const Options&, RunOutput*);
};
constexpr Workload kWorkloads[] = {
    {"pr-rmat-pmm", 32, RunPrRmatPmm},
    {"web-migrate-observed", 12, RunWebMigrateObserved},
};

}  // namespace
}  // namespace pmg::perfbench

int main(int argc, char** argv) {
  using namespace pmg::perfbench;
  Options opts;
  std::string seed_arg, spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      seed_arg = value;
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("--seed wants an integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opts.seconds > 0)) {
        Usage("--seconds wants a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace wants 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opts.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown or missing --workload");
  if (seed_arg.empty()) opts.seed = workload->default_seed;

  const double probe_start = ProbeSeconds();
  // The workload's peak, not the probe's ring: peak_rss_mb is read before
  // the workload's output checks run.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "pmg_bench: cannot reset the peak resident set; "
                         "peak_rss_mb includes the host probe\n");
  }
  RunOutput out;
  workload->run(opts, &out);
  const double probe_end = ProbeSeconds();

  // A diagnostic only: the probe rescales nothing.
  out.Print("host.probe_start_s", probe_start, "s", true);
  out.Print("host.probe_end_s", probe_end, "s", true);
  if (opts.trace) {
    out.Add("host.probe_s", 0.5 * (probe_start + probe_end), "s", true);
    out.Add("host.probe_drift_pct",
            100.0 * (probe_end - probe_start) / probe_start, "%", true);
  }
  const uint64_t attempted = out.checks.attempted();
  const uint64_t failed = out.checks.failed();
  out.Print("failed_ops_pct",
            attempted == 0 ? 0 : 100.0 * failed / attempted, "%", false);

  std::fprintf(stderr, "%s seed=%llu trace=%d: %llu ops attempted, %llu "
               "failed\n", workload->name,
               static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (const auto* list : {&out.metrics, &out.printed}) {
    for (const Metric& m : *list) {
      std::fprintf(stderr, "  %-34s %16.6f %-6s %s\n", m.name.c_str(),
                   m.value, m.unit.c_str(), m.host ? "host" : "simulated");
    }
  }
  if (opts.trace && !spans_path.empty()) {
    std::FILE* f = std::fopen(spans_path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(out.spans_json.data(), 1, out.spans_json.size(), f) !=
            out.spans_json.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "pmg_bench: cannot write spans to %s\n",
                   spans_path.c_str());
      return 1;
    }
  }

  pmg::trace::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(attempted > 0 && failed == 0);
  w.Key("attempted").UInt(attempted);
  w.Key("failed").UInt(failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : out.metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
