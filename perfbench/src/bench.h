#ifndef PMG_PERFBENCH_BENCH_H_
#define PMG_PERFBENCH_BENCH_H_

/// \file bench.h
/// Shared plumbing of the benchmark harness: metric sinks, op accounting,
/// host timing, and the span recorder that the traced run uses to split
/// host time by layer. Every host clock read goes through
/// pmg::hostperf::WallTimer / WallNowNs.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "tools/hostperf/wallclock.h"

namespace pmg::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 20;
  bool trace = false;
};

/// One reported figure. `host` marks figures measured on the host clock
/// (machine-dependent); the rest are simulated or exact counts.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool host = true;
};

/// Ops attempted and output checks failed; every check counts as one op.
class Checks {
 public:
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Everything one workload run reports back to main(): the metrics of the
/// result line, figures that are only printed, and the span document.
struct RunOutput {
  Checks checks;
  std::vector<Metric> metrics;
  std::vector<Metric> printed;
  std::string spans_json;
  void Add(const std::string& name, double value, const std::string& unit,
           bool host) {
    metrics.push_back(Metric{name, value, unit, host});
  }
  void Print(const std::string& name, double value, const std::string& unit,
             bool host) {
    printed.push_back(Metric{name, value, unit, host});
  }
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set (VmHWM) of this process in MiB since the last
/// ResetPeakRss().
double PeakRssMb();

/// Lowers the kernel's resident-set high-water mark to the current resident
/// set, so that PeakRssMb() covers only what runs after it. False where the
/// kernel refuses.
bool ResetPeakRss();

/// Host seconds of one call.
inline double TimeIt(const std::function<void()>& fn) {
  hostperf::WallTimer t;
  fn();
  return t.Seconds();
}

/// Span recorder for the traced run. Spans are opened and closed around
/// public calls in the harness's own code, kept in memory, and written
/// once at the end of the run.
class Spans {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;  ///< Index of the enclosing span, -1 for roots.
    uint64_t op = 0;      ///< Op id shared by every span of one op.
  };

  /// A disabled recorder ignores Begin/End (the untraced run).
  explicit Spans(bool enabled) : enabled_(enabled) {}

  void SetOp(uint64_t op) { op_ = op; }
  void Begin(const std::string& name) {
    if (!enabled_) return;
    const int64_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, hostperf::WallNowNs(), 0, parent, op_});
    open_.push_back(static_cast<int64_t>(spans_.size() - 1));
  }
  void End() {
    if (!enabled_) return;
    spans_[static_cast<size_t>(open_.back())].end_ns = hostperf::WallNowNs();
    open_.pop_back();
  }

  /// Spans as JSON, each with its self time (duration minus the part of
  /// it covered by child spans), plus a per-name self-time summary.
  std::string ToJson() const;

 private:
  bool enabled_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans* spans, const std::string& name) : spans_(spans) {
    spans_->Begin(name);
  }
  ~Scope() { spans_->End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
};

// Workloads (workloads.cc). Each fills `out` with end-to-end metrics
// (opts.trace false) or per-layer metrics (opts.trace true).
void RunPrRmatPmm(const Options& opts, RunOutput* out);
void RunWebMigrateObserved(const Options& opts, RunOutput* out);

}  // namespace pmg::perfbench

#endif  // PMG_PERFBENCH_BENCH_H_
